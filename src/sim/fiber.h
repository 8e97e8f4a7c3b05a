// Cooperative fibers over a register-only context switch.
//
// Every simulated thread of control — an MPI process, a progress thread, a
// spawned dynamic process — is a Fiber. Fibers run on the single host thread
// and switch only at explicit blocking points, so the simulation stays
// deterministic. A switch saves only what the x86-64 SysV ABI makes the
// callee preserve (fiber.cc); no signal mask, no syscall. Stacks come from
// the engine's pool: reaped fibers return theirs for reuse, and the low
// (overflow-target, stacks grow down) bytes carry a canary pattern the
// engine checks before recycling. A stack is an anonymous mapping, so only
// the pages a fiber touches are ever committed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace oqs::sim {

class Engine;

// Bytes at the bottom of every stack reserved for the overflow canary; the
// usable stack starts above them.
inline constexpr std::size_t kStackCanaryBytes = 64;

// Owns one fiber stack, `bytes` long, mapped by the engine (engine.cc).
// Dropping it unmaps the stack and returns its pages to the OS.
struct StackUnmap {
  std::size_t bytes = 0;
  void operator()(char* base) const noexcept;
};
using Stack = std::unique_ptr<char[], StackUnmap>;

class Fiber {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  Fiber(Engine& engine, std::uint64_t serial, std::string name,
        std::function<void()> body);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  const std::string& name() const { return name_; }
  // Unique per engine, starting at 1, in spawn order. Unlike the Fiber's
  // address, a serial is never reused after the fiber is reaped, so it is
  // safe to keep as an identity across suspension points.
  std::uint64_t serial() const { return serial_; }
  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }

  // Base of the stack allocation (the canary region). Exposed so tests can
  // exercise the overflow detection without a real 256 KiB-deep recursion.
  char* stack_base_for_test() { return stack_.get(); }

 private:
  friend class Engine;
  static void trampoline();
  // Runs the fiber until it blocks or finishes; called from the engine
  // loop. The resumer's stack pointer is saved to *from.
  void enter(void** from);
  // Called from inside the fiber: save state, return to the engine.
  void leave(State new_state);
  std::size_t stack_bytes() const { return stack_.get_deleter().bytes; }

  Engine& engine_;
  std::uint64_t serial_;
  std::string name_;
  std::function<void()> body_;
  Stack stack_;
  void* sp_ = nullptr;  // saved stack pointer while not running
  void** return_sp_ = nullptr;
  State state_ = State::kReady;
  bool started_ = false;
  // ASan builds only: this fiber's fake stack while suspended, and the
  // bounds of the stack it returns to.
  void* fake_stack_ = nullptr;
  const void* return_stack_bottom_ = nullptr;
  std::size_t return_stack_size_ = 0;
};

}  // namespace oqs::sim
