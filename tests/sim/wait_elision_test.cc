// Exact idle-poll elision: the same wait run two ways, once with watched
// sources (it parks on its polling grid) and once with opaque predicates
// over the same state (it spins, step by step). Everything observable must
// match: when the wait returns, the Cpu's busy time and switches, and the
// dispatch order of tagged events around the resume.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/idle.h"
#include "sim/process.h"

namespace oqs::sim {
namespace {

// One rail's poll points, walked like PtlElan4's direct-poll list: an
// index loop that rechecks the list after every charge, so points added or
// removed mid-round shift the walk exactly as they do in the PTL. Each
// source is a counter; a probe consumes what was deposited since the last.
class Rail final : public PollPlan {
 public:
  Rail(const ProcessCtx& ctx, std::vector<std::string>& log, int& unconsumed)
      : ctx_(ctx), log_(log), unconsumed_(unconsumed) {}

  void add() {
    sources_.push_back(std::make_unique<Word<int>>());
    seen_.push_back(0);
    shape_.notify();
  }
  void remove(std::size_t i) {
    sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
    seen_.erase(seen_.begin() + static_cast<std::ptrdiff_t>(i));
    shape_.notify();
  }
  Word<int>& source(std::size_t i) { return *sources_[i]; }
  int hits() const { return hits_; }

  int sweep(std::size_t from, bool paid) override {
    int n = 0;
    for (std::size_t i = from; i < sources_.size(); paid = false) {
      if (!paid) ctx_.compute(ctx_.params->host_poll_ns);
      if (i >= sources_.size()) break;
      // Probes are only logged while a deposit waits: the others are the
      // steps elision removes, and they observe nothing.
      if (unconsumed_ > 0)
        log_.push_back("probe" + std::to_string(i) + "@" +
                       std::to_string(ctx_.engine->now()));
      if (*sources_[i] > seen_[i]) {
        ++seen_[i];
        ++hits_;
        --unconsumed_;
        ++n;
      } else {
        ++i;
      }
    }
    return n;
  }
  int watch(IdleWait& w) override {
    if (!w.watch(&shape_)) return -1;
    for (const auto& s : sources_)
      if (!w.watch(&s->signal())) return -1;
    return static_cast<int>(sources_.size());
  }
  bool quiet() const override {
    for (std::size_t i = 0; i < sources_.size(); ++i)
      if (*sources_[i] > seen_[i]) return false;
    return true;
  }
  Time point_ns() const override { return ctx_.params->host_poll_ns; }

 private:
  const ProcessCtx& ctx_;
  std::vector<std::string>& log_;
  int& unconsumed_;
  std::vector<std::unique_ptr<Word<int>>> sources_;
  std::vector<int> seen_;
  Signal shape_;
  int hits_ = 0;
};

// Two rails walked in order, as the BML concatenates them: a resume
// mid-round maps its point through the shape the round had when it parked.
class TwoRails final : public PollPlan {
 public:
  TwoRails(Rail& a, Rail& b) : rails_{&a, &b} {}
  int sweep(std::size_t from, bool paid) override {
    if (from == 0 && !paid)
      return rails_[0]->sweep(0, false) + rails_[1]->sweep(0, false);
    int n = 0;
    for (std::size_t r = 0; r < 2; ++r) {
      if (from >= shape_[r]) {
        from -= shape_[r];
        continue;
      }
      n += rails_[r]->sweep(from, paid);
      from = 0;
      paid = false;
    }
    return n;
  }
  int watch(IdleWait& w) override {
    int total = 0;
    for (std::size_t r = 0; r < 2; ++r) {
      const int n = rails_[r]->watch(w);
      if (n < 0) return -1;
      shape_[r] = static_cast<std::size_t>(n);
      total += n;
    }
    return total;
  }
  bool quiet() const override {
    return rails_[0]->quiet() && rails_[1]->quiet();
  }
  Time point_ns() const override { return rails_[0]->point_ns(); }

 private:
  Rail* rails_[2];
  std::size_t shape_[2] = {0, 0};
};

struct Outcome {
  Time returned = 0;
  Time busy = 0;
  std::uint64_t switches = 0;
  Time busy_at_cut = 0;
  std::uint64_t events = 0;
  bool aborted = false;
  std::vector<std::string> log;
};

// One wait, and everything scheduled around it.
struct Scenario {
  Cadence cadence = Cadence::kPoll;
  std::size_t points = 1;  // per rail (kPoll)
  bool two_rails = false;
  int want = 1;            // deposits the wait consumes before returning
  Time start = 1000;       // when the waiter begins
  Time cut = 0;            // nonzero: run_until(cut), read busy_ns(), go on
  // Timers and fibers, given the sources' deposit hook.
  std::function<void(struct Bed&)> setup;
};

struct Bed {
  Engine engine;
  Cpu cpu{engine, 2, 900};
  ModelParams params;
  ProcessCtx ctx{&engine, &cpu, &params, 0};
  std::vector<std::string> log;
  int unconsumed = 0;  // deposits no probe has taken yet
  Rail a{ctx, log, unconsumed};
  Rail b{ctx, log, unconsumed};
  Word<int> flag;   // the event word / shm flag (kEventWord, kShmFlag)
  Word<int> epoch;  // the abort epoch

  // Deposit into source i of rail r (kPoll) or raise the flag.
  void deposit(Cadence c, int r = 0, std::size_t i = 0) {
    ++unconsumed;
    log.push_back("deposit@" + std::to_string(engine.now()));
    if (c == Cadence::kPoll) {
      Word<int>& w = (r == 0 ? a : b).source(i);
      w = w + 1;
    } else {
      flag = flag + 1;
    }
  }
  // A tagged event: logs its name when dispatched.
  void tag(Time when, std::string name) {
    engine.schedule_at(when, [this, name = std::move(name)] {
      log.push_back(name + "@" + std::to_string(engine.now()));
    });
  }
};

Outcome run(const Scenario& s, bool watched_sources) {
  Bed bed;
  for (std::size_t i = 0; i < s.points; ++i) {
    bed.a.add();
    if (s.two_rails) bed.b.add();
  }
  // Let the waiter own the Cpu's first core before it waits, as a process
  // that has been running does; a wait parks only once its charges cost
  // exactly their length.
  Outcome out;
  bed.engine.spawn("waiter", [&] {
    bed.engine.sleep(s.start);
    bed.ctx.compute(bed.params.host_poll_ns);
    const int want = s.want;
    Rail& a = bed.a;
    TwoRails both(bed.a, bed.b);
    PollPlan* plan = s.two_rails ? static_cast<PollPlan*>(&both) : &a;
    auto done_poll = [&] { return a.hits() + bed.b.hits() >= want; };
    auto done_flag = [&] { return bed.flag >= want; };
    auto abort = [&] { return bed.epoch > 0; };
    bool ok = false;
    if (watched_sources) {
      if (s.cadence == Cadence::kPoll)
        ok = bed.ctx.wait_until(s.cadence, watched(nullptr, done_poll), plan,
                                watched(&bed.epoch.signal(), abort));
      else
        ok = bed.ctx.wait_until(s.cadence,
                                watched(&bed.flag.signal(), done_flag),
                                kNoSweep, watched(&bed.epoch.signal(), abort));
    } else {
      if (s.cadence == Cadence::kPoll)
        ok = bed.ctx.wait_until(s.cadence, done_poll,
                                [&] { return plan->sweep(0, false); }, abort);
      else
        ok = bed.ctx.wait_until(s.cadence, done_flag, kNoSweep, abort);
    }
    out.aborted = !ok;
    out.returned = bed.engine.now();
    bed.log.push_back(std::string(ok ? "returned@" : "aborted@") +
                      std::to_string(bed.engine.now()));
  });
  if (s.setup) s.setup(bed);
  if (s.cut != 0) {
    bed.engine.run_until(s.cut);
    out.busy_at_cut = bed.cpu.busy_ns();
  }
  bed.engine.run();
  out.busy = bed.cpu.busy_ns();
  out.switches = bed.cpu.switches();
  out.events = bed.engine.events_executed();
  out.log = bed.log;
  EXPECT_EQ(bed.engine.parked_waits(), 0u);
  return out;
}

// Runs both ways and compares; returns {spun, parked}.
std::pair<Outcome, Outcome> expect_same(const Scenario& s,
                                        const std::string& what) {
  const Outcome spun = run(s, false);
  const Outcome parked = run(s, true);
  EXPECT_EQ(parked.returned, spun.returned) << what;
  EXPECT_EQ(parked.aborted, spun.aborted) << what;
  EXPECT_EQ(parked.busy, spun.busy) << what;
  EXPECT_EQ(parked.switches, spun.switches) << what;
  EXPECT_EQ(parked.busy_at_cut, spun.busy_at_cut) << what;
  EXPECT_LT(parked.events, spun.events) << what << ": the wait never parked";
  if (parked.log != spun.log) {
    std::size_t i = 0;
    while (i < parked.log.size() && i < spun.log.size() &&
           parked.log[i] == spun.log[i])
      ++i;
    ADD_FAILURE() << what << ": logs part at entry " << i << ": parked "
                  << (i < parked.log.size() ? parked.log[i] : "(end)")
                  << ", spun " << (i < spun.log.size() ? spun.log[i] : "(end)");
  }
  return {spun, parked};
}

// The wait's grid step for a cadence.
Time step_of(Cadence c) {
  const ModelParams p;
  return c == Cadence::kShmFlag ? p.shm_flag_ns : p.host_poll_ns;
}

constexpr Cadence kElidable[] = {Cadence::kPoll, Cadence::kEventWord,
                                 Cadence::kShmFlag};

// Tagged events at every instant of [from, to], one pushed at time 0 and
// one pushed by an event at the same instant: they sort around the resumed
// steps by when they were pushed.
void tag_range(Bed& bed, Time from, Time to) {
  for (Time t = from; t <= to; ++t) {
    bed.tag(t, "early");
    bed.engine.schedule_at(t, [&bed] { bed.tag(bed.engine.now(), "late"); });
  }
}

TEST(WaitElision, DepositAtEveryOffsetAcrossTwoRounds) {
  for (Cadence c : kElidable) {
    const Time d = step_of(c);
    // Two rounds of a two-point poll: three steps each.
    const Time span = c == Cadence::kPoll ? 6 * d : 2 * d;
    bool elided = false;
    for (Time off = 0; off <= span; ++off) {
      Scenario s;
      s.cadence = c;
      s.points = 2;
      s.setup = [&, off](Bed& bed) {
        const Time at = 5000 + off;
        bed.engine.schedule_at(at, [&bed, c] { bed.deposit(c, 0, 1); });
        tag_range(bed, at, at + 2 * d);
      };
      const auto [spun, parked] =
          expect_same(s, "offset " + std::to_string(off));
      elided = elided || parked.events < spun.events;
    }
    EXPECT_TRUE(elided) << "the watched wait never parked";
  }
}

TEST(WaitElision, DepositTiedWithAStep) {
  // The waiter's grid: it charges one warm-up poll at `start`, then its
  // steps end on multiples of d from there.
  for (Cadence c : kElidable) {
    const Time d = step_of(c);
    for (Time k = 10; k < 14; ++k) {
      const Time at = Scenario{}.start + ModelParams{}.host_poll_ns + k * d;
      for (int pushed = 0; pushed < 3; ++pushed) {
        Scenario s;
        s.cadence = c;
        s.setup = [&, at, pushed](Bed& bed) {
          auto deposit = [&bed, c] { bed.deposit(c); };
          if (pushed == 0) {  // long before
            bed.engine.schedule_at(at, deposit);
          } else if (pushed == 1) {  // exactly one charge before
            bed.engine.schedule_at(at - d, [&bed, deposit, d] {
              bed.engine.schedule(d, deposit);
            });
          } else {  // at the same instant
            bed.engine.schedule_at(at, [&bed, deposit] {
              bed.engine.schedule(0, deposit);
            });
          }
          tag_range(bed, at - 1, at + 2 * d);
        };
        expect_same(s, "step " + std::to_string(k) + " pushed " +
                           std::to_string(pushed));
      }
    }
  }
}

TEST(WaitElision, PollPointAddedOrRemovedMidWait) {
  const Time d = step_of(Cadence::kPoll);
  for (Time off = 0; off < 3 * d; off += 7) {
    for (bool add : {true, false}) {
      Scenario s;
      s.points = 2;
      s.setup = [&, off, add](Bed& bed) {
        const Time at = 4000 + off;
        bed.engine.schedule_at(at, [&bed, add] {
          if (add)
            bed.a.add();
          else
            bed.a.remove(0);
        });
        // Deposit into what is then the last point.
        bed.engine.schedule_at(at + 5 * d, [&bed, add] {
          bed.deposit(Cadence::kPoll, 0, add ? 2 : 0);
        });
        tag_range(bed, at + 5 * d, at + 8 * d);
      };
      expect_same(s, std::string(add ? "add" : "remove") + " at offset " +
                         std::to_string(off));
    }
  }
}

TEST(WaitElision, SecondFiberComputesDuringAVirtualStep) {
  // The other fiber's compute lands inside a virtual charge (kPoll points,
  // kEventWord reads) or inside a virtual idle step, at every offset of a
  // round; it must see the cores as the spinning twin left them.
  for (Cadence c : {Cadence::kPoll, Cadence::kEventWord}) {
    const Time d = step_of(c);
    for (Time off = 0; off < 3 * d; off += 5) {
      Scenario s;
      s.cadence = c;
      s.points = 2;
      s.setup = [&, off](Bed& bed) {
        const Time at = 6000 + off;
        bed.engine.spawn("other", [&bed, at] {
          bed.engine.sleep(at);
          bed.log.push_back("other@" + std::to_string(bed.engine.now()));
          bed.cpu.compute(333);
          bed.log.push_back("other-done@" + std::to_string(bed.engine.now()));
        });
        bed.engine.schedule_at(at + 4 * d, [&bed, c] { bed.deposit(c); });
        tag_range(bed, at + 4 * d, at + 7 * d);
      };
      expect_same(s, "offset " + std::to_string(off));
    }
  }
}

TEST(WaitElision, AbortThroughTheEpochSignal) {
  // The failure service moves the epoch and notifies; the World's wake-up
  // (Pml::wake_waits) follows as a separate event, as it does in the stack.
  for (Cadence c : kElidable) {
    const Time d = step_of(c);
    for (Time off = 0; off < 2 * d; off += 3) {
      Scenario s;
      s.cadence = c;
      s.setup = [&, off](Bed& bed) {
        const Time at = 5000 + off;
        bed.engine.schedule_at(at, [&bed] {
          bed.epoch = bed.epoch + 1;
          bed.engine.schedule(0, [&bed] { bed.log.push_back("wake_waits"); });
        });
        tag_range(bed, at, at + 2 * d);
      };
      const Outcome parked =
          expect_same(s, "offset " + std::to_string(off)).second;
      EXPECT_TRUE(parked.aborted);
    }
  }
}

TEST(WaitElision, RunUntilEndsMidElision) {
  for (Cadence c : kElidable) {
    const Time d = step_of(c);
    for (Time off = 0; off < 3 * d; off += 11) {
      Scenario s;
      s.cadence = c;
      s.points = 2;
      s.cut = 7000 + off;
      s.setup = [&](Bed& bed) {
        bed.engine.schedule_at(20000, [&bed, c] { bed.deposit(c); });
      };
      expect_same(s, "cut at offset " + std::to_string(off));
    }
  }
}

TEST(WaitElision, TwoRailPlan) {
  const Time d = step_of(Cadence::kPoll);
  for (int rail = 0; rail < 2; ++rail) {
    for (Time off = 0; off < 5 * d; off += 3) {
      Scenario s;
      s.points = 2;
      s.two_rails = true;
      s.want = 2;
      s.setup = [&, rail, off](Bed& bed) {
        const Time at = 5000 + off;
        bed.engine.schedule_at(at, [&bed, rail] {
          bed.deposit(Cadence::kPoll, rail, 1);
        });
        bed.engine.schedule_at(at + 9 * d + 1, [&bed, rail] {
          bed.deposit(Cadence::kPoll, 1 - rail, 0);
        });
        tag_range(bed, at, at + 2 * d);
      };
      expect_same(s, "rail " + std::to_string(rail) + " offset " +
                         std::to_string(off));
    }
  }
}

// Two waiters on two Cpus, started together so their grids share a lane,
// ping-pong a token: each wakes on its own source and deposits into the
// other's. When both are parked their steps tie at every instant, and a
// deposit at the instant the peer probes is seen or not by tie order alone.
Outcome run_pair(Cadence c, Time kick, int rounds, bool watched_sources) {
  Engine engine;
  ModelParams params;
  Cpu cpus[2] = {Cpu{engine, 1, 900}, Cpu{engine, 1, 900}};
  std::vector<std::string> log;
  Word<int> src[2];
  Outcome out;
  for (int me = 0; me < 2; ++me) {
    engine.spawn("pinger" + std::to_string(me), [&, me] {
      const ProcessCtx ctx{&engine, &cpus[me], &params, me};
      engine.sleep(1000);
      ctx.compute(params.host_poll_ns);
      for (int i = 1; i <= rounds; ++i) {
        auto done = [&, i] { return src[me] >= i; };
        if (watched_sources)
          ctx.wait_until(c, watched(&src[me].signal(), done));
        else
          ctx.wait_until(c, done);
        log.push_back(std::to_string(me) + " got " + std::to_string(i) + "@" +
                      std::to_string(engine.now()));
        ctx.compute(params.host_poll_ns);
        src[1 - me] = src[1 - me] + 1;
      }
    });
  }
  engine.schedule_at(kick, [&] { src[0] = src[0] + 1; });
  for (Time t = kick; t < kick + 40 * 250; t += 7)
    engine.schedule_at(
        t, [&] { log.push_back("tag@" + std::to_string(engine.now())); });
  engine.run();
  out.busy = cpus[0].busy_ns() + cpus[1].busy_ns();
  out.switches = cpus[0].switches() + cpus[1].switches();
  out.events = engine.events_executed();
  out.log = log;
  return out;
}

TEST(WaitElision, TwoWaitersInOneLane) {
  for (Cadence c : kElidable) {
    for (Time kick = 3000; kick < 3000 + 2 * step_of(c); kick += 3) {
      const Outcome spun = run_pair(c, kick, 6, false);
      const Outcome parked = run_pair(c, kick, 6, true);
      const std::string what = "kick " + std::to_string(kick);
      EXPECT_EQ(parked.busy, spun.busy) << what;
      EXPECT_EQ(parked.switches, spun.switches) << what;
      EXPECT_EQ(parked.log, spun.log) << what;
      EXPECT_LT(parked.events, spun.events) << what;
    }
  }
}

TEST(WaitElision, ParkedWaitElidesItsSteps) {
  Scenario s;
  s.points = 2;
  s.setup = [](Bed& bed) {
    bed.engine.schedule_at(1000000, [&bed] { bed.deposit(Cadence::kPoll); });
  };
  const Outcome spun = run(s, false);
  const Outcome parked = run(s, true);
  EXPECT_EQ(parked.returned, spun.returned);
  EXPECT_EQ(parked.busy, spun.busy);
  EXPECT_GT(spun.events, 10000u);
  EXPECT_LT(parked.events, 20u);
}

TEST(WaitElision, DrainWithOnlyParkedWaitsIsAnError) {
  // Spinning, this wait never ends and run() never returns. Parked, the
  // queue drains: run() must say so rather than look like a finished run.
  Bed bed;
  bed.a.add();
  bool returned = false;
  bed.engine.spawn("stuck-waiter", [&] {
    bed.ctx.compute(bed.params.host_poll_ns);
    PollPlan* plan = &bed.a;
    bed.ctx.wait_until(Cadence::kPoll, watched(nullptr, [] { return false; }),
                       plan);
    returned = true;
  });
  const std::uint64_t before =
      obs::metrics().counter("sim.idle.stranded").value();
  bed.engine.run();
  EXPECT_FALSE(returned);
  EXPECT_EQ(bed.engine.parked_waits(), 1u);
  EXPECT_EQ(obs::metrics().counter("sim.idle.stranded").value(), before + 1);
}

}  // namespace
}  // namespace oqs::sim
