#include "sim/fiber.h"

#include <cassert>
#include <cstdlib>
#include <utility>

#include "sim/engine.h"

#if defined(__SANITIZE_ADDRESS__)
#define OQS_SIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OQS_SIM_ASAN_FIBERS 1
#endif
#endif
#ifdef OQS_SIM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "sim/fiber.cc: oqs_sim_switch is x86-64 SysV assembly; port it first"
#endif

// void oqs_sim_switch(void** save_sp, void* load_sp)
//
// Saves the callee-saved state on the current stack, stores the stack
// pointer to *save_sp, loads load_sp and restores the same state from
// there. Everything else is caller-saved by the ABI, so the compiler
// already spilled what it needs around the call. The frame it leaves, from
// the saved stack pointer up: MXCSR (4 bytes) and the x87 control word
// (2 bytes) in one 8-byte slot, r15, r14, r13, r12, rbx, rbp, return
// address. Fiber's constructor seeds that frame on a new stack.
extern "C" void oqs_sim_switch(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .globl oqs_sim_switch
  .hidden oqs_sim_switch
  .type oqs_sim_switch, @function
  .p2align 4
oqs_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size oqs_sim_switch, .-oqs_sim_switch
  .popsection
  .pushsection .note.GNU-stack, "", @progbits
  .popsection
)");

namespace oqs::sim {

namespace {
// The trampoline takes no arguments, so the fiber being started is staged
// here. Safe: the simulation is single-threaded and the value is consumed
// before control can reach another start.
Fiber* g_starting = nullptr;

// A new fiber's floating-point control state: the ABI's process defaults,
// MXCSR 0x1F80 (all exceptions masked, round to nearest) in the low four
// bytes and x87 control word 0x037F above it.
constexpr std::uint64_t kInitialFpControl = (0x037Full << 32) | 0x1F80u;
constexpr int kSavedRegisters = 6;  // rbp, rbx, r12-r15

// ASan tracks one stack per thread; each switch must announce the stack
// being entered (start) and confirm arrival on it (finish), or ASan
// misreads fiber frames. A null fake-stack slot in start() marks the
// leaving context as finished, so ASan frees its fake stack.
void asan_start([[maybe_unused]] void** fake_stack_save,
                [[maybe_unused]] const void* bottom,
                [[maybe_unused]] std::size_t size) {
#ifdef OQS_SIM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}
void asan_finish([[maybe_unused]] void* fake_stack,
                 [[maybe_unused]] const void** bottom_old,
                 [[maybe_unused]] std::size_t* size_old) {
#ifdef OQS_SIM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#endif
}
}  // namespace

Fiber::Fiber(Engine& engine, std::uint64_t serial, std::string name,
             std::function<void()> body)
    : engine_(engine),
      serial_(serial),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(engine.acquire_stack()) {
  // Seed the frame oqs_sim_switch pops, so the first switch "returns" into
  // trampoline() with rsp+8 16-byte aligned, as after a call. The canary
  // region sits below the usable stack, so a deep enough overflow
  // scribbles over it before leaving the allocation.
  auto top = reinterpret_cast<std::uintptr_t>(stack_.get() + stack_bytes());
  auto* sp = reinterpret_cast<std::uintptr_t*>(top & ~std::uintptr_t{15});
  *--sp = 0;  // trampoline()'s own return address: it never returns
  *--sp = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
  for (int i = 0; i < kSavedRegisters; ++i) *--sp = 0;
  *--sp = kInitialFpControl;
  sp_ = sp;
}

Fiber::~Fiber() {
  engine_.release_stack(std::move(stack_));
}

void Fiber::trampoline() {
  Fiber* self = g_starting;
  g_starting = nullptr;
  asan_finish(nullptr, &self->return_stack_bottom_, &self->return_stack_size_);
  self->started_ = true;
  self->body_();
  self->body_ = nullptr;  // release captured state promptly
  self->leave(State::kDone);
  assert(false && "resumed a finished fiber");
  std::abort();
}

void Fiber::enter(void** from) {
  assert(state_ == State::kReady);
  state_ = State::kRunning;
  return_sp_ = from;
  if (!started_) g_starting = this;
  void* fake_stack = nullptr;
  asan_start(&fake_stack, stack_.get() + kStackCanaryBytes,
             stack_bytes() - kStackCanaryBytes);
  oqs_sim_switch(from, sp_);
  asan_finish(fake_stack, nullptr, nullptr);
}

void Fiber::leave(State new_state) {
  assert(state_ == State::kRunning);
  state_ = new_state;
  void** back = return_sp_;
  return_sp_ = nullptr;
  asan_start(new_state == State::kDone ? nullptr : &fake_stack_,
             return_stack_bottom_, return_stack_size_);
  oqs_sim_switch(&sp_, *back);
  asan_finish(fake_stack_, &return_stack_bottom_, &return_stack_size_);
}

}  // namespace oqs::sim
