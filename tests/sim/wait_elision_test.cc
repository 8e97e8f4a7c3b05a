// Exact idle-poll elision: the same wait run two ways, once describing its
// round (it parks on its polling grid) and once with a round that declines
// to (it spins, step by step). Everything observable must match: when the
// wait returns, the Cpu's busy time and switches, and the dispatch order of
// tagged events around the resume.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
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
  Rail(const ProcessCtx& ctx, std::vector<std::string>& log, int& unconsumed,
       std::string who = "")
      : ctx_(ctx), log_(log), unconsumed_(unconsumed), who_(std::move(who)) {}

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
        log_.push_back(who_ + "probe" + std::to_string(i) + "@" +
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
  std::string who_;
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

// The spinning twin's round: the same sweep (none: no poll points), but
// watch() declines, as it does for a dirty round, so every step of the
// wait is dispatched.
class Declining final : public PollPlan {
 public:
  explicit Declining(PollPlan* plan) : plan_(plan) {}
  int sweep(std::size_t from, bool paid) override {
    return plan_ == nullptr ? 0 : plan_->sweep(from, paid);
  }
  int watch(IdleWait&) override { return -1; }
  bool quiet() const override { return false; }
  Time point_ns() const override { return 0; }

 private:
  PollPlan* plan_;
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
    const bool poll = s.cadence == Cadence::kPoll;
    PollPlan* plan = !poll         ? nullptr
                     : s.two_rails ? static_cast<PollPlan*>(&both)
                                   : &a;
    Declining declining(plan);
    auto done = [&] {
      return poll ? a.hits() + bed.b.hits() >= want : bed.flag >= want;
    };
    auto abort = [&] { return bed.epoch > 0; };
    const bool ok = bed.ctx.wait_until(
        s.cadence, watched(poll ? nullptr : &bed.flag.signal(), done),
        watched_sources ? plan : &declining,
        watched(&bed.epoch.signal(), abort));
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
  return ProcessCtx{nullptr, nullptr, &p, 0}.poll_period(c);
}

constexpr Cadence kElidable[] = {Cadence::kPoll, Cadence::kEventWord,
                                 Cadence::kShmFlag, Cadence::kThreaded,
                                 Cadence::kThreadExit};

// Tagged events at every instant of [from, to], one pushed at time 0 and
// one pushed by an event at the same instant: they sort around the resumed
// steps by when they were pushed.
template <class B>
void tag_range(B& bed, Time from, Time to) {
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
        Declining declining(nullptr);
        auto done = [&, i] { return src[me] >= i; };
        ctx.wait_until(c, watched(&src[me].signal(), done),
                       watched_sources ? nullptr : &declining);
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


// ---- Joint parking: several waits share a Cpu ----
//
// Each poller waits `rounds` times for one deposit into its own rail
// (kPoll) or event word (kEventWord), computing `work` ns after each. The
// same run twice, with watched sources (the waits park together and the
// Cpu replays their charges) and with declining rounds (they spin), must
// agree on every resume instant, the Cpus' busy time, switches and last
// core owners, and the dispatch order of tagged events.
struct Poller {
  Cadence cadence = Cadence::kPoll;
  std::size_t points = 2;
  int cpu = 0;
  Time start = 1000;   // its first wait begins here
  bool warmup = true;  // after one host_poll_ns charge
  int rounds = 1;
  Time work = 0;
  int signal_to = -1;  // after each round, deposit into this poller
};

struct JointBed {
  Engine engine;
  ModelParams params;
  std::vector<std::unique_ptr<Cpu>> cpus;
  std::vector<Poller> pollers;
  std::vector<std::unique_ptr<ProcessCtx>> ctxs;
  std::vector<std::string> log;
  std::vector<std::unique_ptr<int>> unconsumed;
  std::vector<std::unique_ptr<Rail>> rails;
  std::vector<std::unique_ptr<Word<int>>> flags;
  std::size_t sampled = 0;  // parked waits at the sample instant

  void deposit(int p, std::size_t point = 0) {
    const std::size_t i = static_cast<std::size_t>(p);
    ++*unconsumed[i];
    log.push_back(std::to_string(p) + " deposit@" +
                  std::to_string(engine.now()));
    if (pollers[i].cadence == Cadence::kPoll) {
      Word<int>& w = rails[i]->source(point);
      w = w + 1;
    } else {
      *flags[i] = *flags[i] + 1;
    }
  }
  void tag(Time when, std::string name) {
    engine.schedule_at(when, [this, name = std::move(name)] {
      log.push_back(name + "@" + std::to_string(engine.now()));
    });
  }
  // A fiber that charges `dur` ns on Cpu `c` at `when`.
  void foreign(int c, Time when, Time dur, const std::string& name) {
    engine.spawn(name, [this, c, when, dur, name] {
      engine.sleep(when);
      log.push_back(name + "@" + std::to_string(engine.now()));
      cpus[static_cast<std::size_t>(c)]->compute(dur);
      log.push_back(name + "-done@" + std::to_string(engine.now()));
    });
  }
};

struct Joint {
  std::vector<unsigned> cores = {2};
  std::vector<Poller> pollers;
  Time cut = 0;     // nonzero: run_until(cut), read the Cpus, go on
  Time sample = 0;  // nonzero: count the parked waits at this instant
  std::function<void(JointBed&)> setup;
};

struct JointOutcome {
  std::vector<std::vector<Time>> returned;  // per poller, per round
  std::vector<Time> busy;
  std::vector<std::uint64_t> switches;
  std::vector<std::vector<std::uint64_t>> owners;
  std::vector<Time> busy_at_cut;
  std::vector<std::uint64_t> switches_at_cut;
  std::size_t sampled = 0;
  std::size_t stranded = 0;
  std::uint64_t events = 0;
  std::vector<std::string> log;
};

JointOutcome run_joint(const Joint& j, bool watched_sources) {
  JointBed bed;
  for (unsigned n : j.cores)
    bed.cpus.push_back(std::make_unique<Cpu>(bed.engine, n, 900, 0.35));
  bed.pollers = j.pollers;
  JointOutcome out;
  out.returned.resize(j.pollers.size());
  for (std::size_t i = 0; i < j.pollers.size(); ++i) {
    const Poller& p = j.pollers[i];
    bed.ctxs.push_back(std::make_unique<ProcessCtx>(
        ProcessCtx{&bed.engine, bed.cpus[static_cast<std::size_t>(p.cpu)].get(),
                   &bed.params, static_cast<int>(i)}));
    bed.unconsumed.push_back(std::make_unique<int>(0));
    bed.rails.push_back(std::make_unique<Rail>(*bed.ctxs[i], bed.log,
                                               *bed.unconsumed[i],
                                               std::to_string(i) + " "));
    for (std::size_t k = 0; k < p.points; ++k) bed.rails[i]->add();
    bed.flags.push_back(std::make_unique<Word<int>>());
  }
  for (std::size_t i = 0; i < j.pollers.size(); ++i) {
    bed.engine.spawn("poller" + std::to_string(i), [&, i] {
      const Poller& p = j.pollers[i];
      const ProcessCtx& ctx = *bed.ctxs[i];
      Rail& rail = *bed.rails[i];
      Word<int>& flag = *bed.flags[i];
      bed.engine.sleep(p.start);
      if (p.warmup) ctx.compute(bed.params.host_poll_ns);
      const bool poll = p.cadence == Cadence::kPoll;
      PollPlan* plan = poll ? &rail : nullptr;
      Declining declining(plan);
      for (int r = 1; r <= p.rounds; ++r) {
        ctx.wait_until(p.cadence,
                       watched(poll ? nullptr : &flag.signal(),
                               [&, r] {
                                 return poll ? rail.hits() >= r : flag >= r;
                               }),
                       watched_sources ? plan : &declining);
        if (p.cadence != Cadence::kPoll) --*bed.unconsumed[i];
        out.returned[i].push_back(bed.engine.now());
        bed.log.push_back(std::to_string(i) + " returned@" +
                          std::to_string(bed.engine.now()));
        if (p.work != 0) ctx.compute(p.work);
        if (p.signal_to >= 0) bed.deposit(p.signal_to);
      }
    });
  }
  if (j.sample != 0)
    bed.engine.schedule_at(j.sample,
                           [&] { out.sampled = bed.engine.parked_waits(); });
  if (j.setup) j.setup(bed);
  const auto read_cpus = [&](std::vector<Time>& busy,
                             std::vector<std::uint64_t>& switches) {
    for (const auto& c : bed.cpus) {
      busy.push_back(c->busy_ns());
      switches.push_back(c->switches());
    }
  };
  if (j.cut != 0) {
    bed.engine.run_until(j.cut);
    read_cpus(out.busy_at_cut, out.switches_at_cut);
  }
  bed.engine.run();
  read_cpus(out.busy, out.switches);
  for (const auto& c : bed.cpus) {
    out.owners.emplace_back();
    for (unsigned k = 0; k < c->num_cores(); ++k)
      out.owners.back().push_back(c->last_on(k));
  }
  out.stranded = bed.engine.parked_waits();
  out.events = bed.engine.events_executed();
  out.log = bed.log;
  return out;
}

// Runs both ways and compares; returns {spun, parked}.
std::pair<JointOutcome, JointOutcome> expect_joint_same(
    const Joint& j, const std::string& what) {
  const JointOutcome spun = run_joint(j, false);
  const JointOutcome parked = run_joint(j, true);
  EXPECT_EQ(parked.returned, spun.returned) << what;
  EXPECT_EQ(parked.busy, spun.busy) << what;
  EXPECT_EQ(parked.switches, spun.switches) << what;
  EXPECT_EQ(parked.owners, spun.owners) << what;
  EXPECT_EQ(parked.busy_at_cut, spun.busy_at_cut) << what;
  EXPECT_EQ(parked.switches_at_cut, spun.switches_at_cut) << what;
  EXPECT_EQ(parked.stranded, 0u) << what;
  EXPECT_LE(parked.events, spun.events) << what;
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

// Two kPoll pollers with two points each on one 2-core Cpu, both warmed up
// at 1000: they poll on their own cores with overlapping 108 ns charges
// (80 ns plus 35% contention), 296 ns a round.
Joint lockstep_pair() {
  Joint j;
  j.pollers = {Poller{}, Poller{}};
  return j;
}

TEST(JointElision, BothParkInLockstep) {
  const Time round = 80 + 2 * 108;
  for (Time off = 0; off < 2 * round; off += 5) {
    Joint j = lockstep_pair();
    j.sample = 4000;
    j.setup = [off](JointBed& bed) {
      bed.engine.schedule_at(5000 + off, [&bed] { bed.deposit(0, 1); });
      bed.engine.schedule_at(7000 + 3 * off, [&bed] { bed.deposit(1, 0); });
      tag_range(bed, 5000 + off, 5000 + off + 2 * 108);
    };
    const auto [spun, parked] =
        expect_joint_same(j, "offset " + std::to_string(off));
    EXPECT_EQ(parked.sampled, 2u) << "offset " << off;
    EXPECT_LT(parked.events, spun.events) << "offset " << off;
  }
}

TEST(JointElision, OneParksWhileTheOtherIsMidCharge) {
  // The second poller starts at every offset of the first one's round, so
  // it parks while the first is anywhere in a charge or its idle step.
  for (Time off = 0; off < 300; off += 3) {
    Joint j = lockstep_pair();
    j.pollers[1].start += off;
    j.setup = [](JointBed& bed) {
      bed.engine.schedule_at(6000, [&bed] { bed.deposit(1, 1); });
      bed.engine.schedule_at(6500, [&bed] { bed.deposit(0, 0); });
    };
    expect_joint_same(j, "offset " + std::to_string(off));
  }
}

TEST(JointElision, SwitchTransition) {
  // Without a warm-up the second poller's first charge can land on the
  // core the first one last ran on, and as their phases drift each takes
  // the other's core: 980 ns charges, or 1,008 with contention.
  bool switched = false;
  for (Time off = 0; off < 300; off += 4) {
    Joint j = lockstep_pair();
    j.pollers[1].warmup = false;
    j.pollers[1].points = 1;
    j.pollers[1].start += off;
    j.setup = [off](JointBed& bed) {
      bed.engine.schedule_at(8000 + off, [&bed] { bed.deposit(0, 1); });
      bed.engine.schedule_at(9000, [&bed] { bed.deposit(1, 0); });
    };
    const auto [spun, parked] =
        expect_joint_same(j, "offset " + std::to_string(off));
    switched = switched || spun.switches[0] > 1;
  }
  EXPECT_TRUE(switched) << "no run paid a switch";
}

TEST(JointElision, PollBesideEventWord) {
  for (Time off = 0; off < 300; off += 3) {
    Joint j = lockstep_pair();
    j.pollers[1].cadence = Cadence::kEventWord;
    j.pollers[1].points = 0;
    j.pollers[1].start += off;
    j.setup = [off](JointBed& bed) {
      bed.engine.schedule_at(5000 + off, [&bed] { bed.deposit(1); });
      bed.engine.schedule_at(5600, [&bed] { bed.deposit(0, 1); });
      tag_range(bed, 5000 + off, 5000 + off + 120);
    };
    expect_joint_same(j, "offset " + std::to_string(off));
  }
}

TEST(JointElision, ForeignComputeDuringJointPark) {
  // A third fiber charges 333 ns while both waits are parked: it takes its
  // core from the replayed occupancy and pays its contention and switch.
  // With a fourth fiber at the same instant one of them must queue, and a
  // parked wait's charge end hands it the core.
  for (int foreign = 1; foreign <= 2; ++foreign) {
    for (Time off = 0; off < 300; off += 3) {
      Joint j = lockstep_pair();
      j.setup = [off, foreign](JointBed& bed) {
        for (int f = 0; f < foreign; ++f)
          bed.foreign(0, 4000 + off, 333, "other" + std::to_string(f));
        bed.engine.schedule_at(6000, [&bed] { bed.deposit(0, 0); });
        bed.engine.schedule_at(6100, [&bed] { bed.deposit(1, 1); });
        tag_range(bed, 4000 + off, 4000 + off + 400);
      };
      expect_joint_same(j, std::to_string(foreign) + " foreign, offset " +
                               std::to_string(off));
    }
  }
}

TEST(JointElision, DepositTiedWithAJointStep) {
  // Deposits at every instant across two rounds of the joint lockstep,
  // pushed long before, one step before, or at the same instant.
  const Time round = 80 + 2 * 108;
  for (Time off = 0; off <= 2 * round; ++off) {
    for (int pushed = 0; pushed < 3; ++pushed) {
      Joint j = lockstep_pair();
      j.setup = [off, pushed](JointBed& bed) {
        const Time at = 5000 + off;
        auto deposit = [&bed] { bed.deposit(0, 1); };
        if (pushed == 0) {
          bed.engine.schedule_at(at, deposit);
        } else if (pushed == 1) {
          bed.engine.schedule_at(at - 108, [&bed, deposit] {
            bed.engine.schedule(108, deposit);
          });
        } else {
          bed.engine.schedule_at(at, [&bed, deposit] {
            bed.engine.schedule(0, deposit);
          });
        }
        bed.engine.schedule_at(7000, [&bed] { bed.deposit(1, 0); });
        tag_range(bed, at - 1, at + 110);
      };
      expect_joint_same(j, "offset " + std::to_string(off) + " pushed " +
                               std::to_string(pushed));
    }
  }
}

// Pollers 0 and 1 on Cpu 0, 2 (and 3) on Cpu 1. Poller 0 and poller 2
// play ping-pong; the partners idle until the end. With a partner on both
// Cpus their step timelines are identical and their resumed steps tie on
// (when, 2v); with one partner they differ.
Joint two_cpus(bool partner_on_both, Time kick) {
  Joint j;
  j.cores = {2, 2};
  Poller ping;
  ping.rounds = 4;
  ping.work = 80;
  ping.signal_to = 2;
  Poller pong = ping;
  pong.cpu = 1;
  pong.signal_to = 0;
  Poller partner;
  Poller partner2 = partner;
  partner2.cpu = 1;
  j.pollers = {ping, partner, pong};
  if (partner_on_both) j.pollers.push_back(partner2);
  j.setup = [kick, partner_on_both](JointBed& bed) {
    bed.engine.schedule_at(kick, [&bed] { bed.deposit(0, 1); });
    bed.engine.schedule_at(kick, [&bed] { bed.deposit(2, 1); });
    bed.engine.schedule_at(40000, [&bed, partner_on_both] {
      bed.deposit(1);
      if (partner_on_both) bed.deposit(3);
    });
    for (Time t = kick; t < kick + 8000; t += 7) bed.tag(t, "tag");
  };
  return j;
}

TEST(JointElision, ResumedStepsOnTwoCpusTie) {
  for (bool both : {true, false}) {
    for (Time kick = 3000; kick < 3000 + 600; kick += 3) {
      const Joint j = two_cpus(both, kick);
      expect_joint_same(j, std::string(both ? "equal" : "different") +
                               " timelines, kick " + std::to_string(kick));
    }
  }
}

TEST(JointElision, OneCoreAndFourCores) {
  // One core: only one of the waits parks, the other spins beside it. Four
  // cores: three waits park, and a foreign compute lands among them.
  for (Time off = 0; off < 300; off += 3) {
    Joint one = lockstep_pair();
    one.cores = {1};
    one.pollers[1].start += off;
    one.setup = [](JointBed& bed) {
      bed.engine.schedule_at(6000, [&bed] { bed.deposit(0, 1); });
      bed.engine.schedule_at(6800, [&bed] { bed.deposit(1, 0); });
    };
    expect_joint_same(one, "1 core, offset " + std::to_string(off));

    Joint four = lockstep_pair();
    four.cores = {4};
    four.pollers.push_back(Poller{});
    four.pollers[1].start += off;
    four.pollers[2].cadence = Cadence::kEventWord;
    four.pollers[2].points = 0;
    four.pollers[2].start += 2 * off;
    four.sample = 3900;
    four.setup = [off](JointBed& bed) {
      bed.foreign(0, 4000 + off, 500, "other");
      bed.engine.schedule_at(6000, [&bed] { bed.deposit(0, 1); });
      bed.engine.schedule_at(6100, [&bed] { bed.deposit(2); });
      bed.engine.schedule_at(6800, [&bed] { bed.deposit(1, 0); });
    };
    const JointOutcome parked =
        expect_joint_same(four, "4 cores, offset " + std::to_string(off))
            .second;
    EXPECT_EQ(parked.sampled, 3u) << "offset " << off;
  }
}

TEST(JointElision, RunUntilEndsMidJointPark) {
  for (Time off = 0; off < 600; off += 7) {
    Joint j = lockstep_pair();
    j.pollers[1].start += 37;
    j.cut = 5000 + off;
    j.setup = [](JointBed& bed) {
      bed.engine.schedule_at(20000, [&bed] { bed.deposit(0, 0); });
      bed.engine.schedule_at(20000, [&bed] { bed.deposit(1, 1); });
    };
    expect_joint_same(j, "cut at offset " + std::to_string(off));
  }
}

// Random configurations: pollers, their cadences, poll points, start
// phases and rounds, foreign computes and deposit times, all drawn from
// the seed.
Joint random_joint(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto draw = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Joint j;
  const int cpus = draw(1, 4);
  for (int c = 0; c < cpus; ++c)
    j.cores.push_back(static_cast<unsigned>(draw(1, 4)));
  const int pollers = draw(2, 6);
  for (int i = 0; i < pollers; ++i) {
    Poller p;
    p.cpu = draw(0, cpus - 1);
    p.cadence = draw(0, 3) == 0 ? Cadence::kEventWord : Cadence::kPoll;
    p.points = p.cadence == Cadence::kPoll
                   ? static_cast<std::size_t>(draw(1, 3))
                   : 0;
    p.start = static_cast<Time>(draw(500, 1500));
    p.warmup = draw(0, 3) != 0;
    p.rounds = draw(1, 3);
    p.work = static_cast<Time>(draw(0, 1) * draw(1, 400));
    j.pollers.push_back(p);
  }
  const int foreign = draw(0, 4);
  std::vector<std::pair<Time, Time>> computes;
  for (int f = 0; f < foreign; ++f)
    computes.emplace_back(static_cast<Time>(draw(1500, 8000)),
                          static_cast<Time>(draw(1, 1200)));
  std::vector<int> foreign_cpu;
  for (int f = 0; f < foreign; ++f) foreign_cpu.push_back(draw(0, cpus - 1));
  // One deposit per round of every poller, at a random point.
  struct Deposit {
    Time at;
    int poller;
    std::size_t point;
    bool same_instant;
  };
  std::vector<Deposit> deposits;
  for (int i = 0; i < pollers; ++i) {
    const Poller& p = j.pollers[static_cast<std::size_t>(i)];
    for (int r = 0; r < p.rounds; ++r)
      deposits.push_back(
          {static_cast<Time>(draw(2000, 12000)), i,
           p.points == 0 ? 0
                         : static_cast<std::size_t>(
                               draw(0, static_cast<int>(p.points) - 1)),
           draw(0, 2) == 0});
  }
  j.cut = draw(0, 1) == 0 ? static_cast<Time>(draw(1500, 12000)) : 0;
  j.setup = [computes, foreign_cpu, deposits](JointBed& bed) {
    for (std::size_t f = 0; f < computes.size(); ++f)
      bed.foreign(foreign_cpu[f], computes[f].first, computes[f].second,
                  "other" + std::to_string(f));
    for (const Deposit& d : deposits) {
      auto deposit = [&bed, d] { bed.deposit(d.poller, d.point); };
      if (d.same_instant)
        bed.engine.schedule_at(d.at, [&bed, deposit] {
          bed.engine.schedule(0, deposit);
        });
      else
        bed.engine.schedule_at(d.at, deposit);
      bed.tag(d.at, "tag");
    }
  };
  return j;
}

void differential(std::uint32_t first, std::uint32_t seeds) {
  std::uint32_t elided = 0;
  for (std::uint32_t seed = first; seed < first + seeds; ++seed) {
    const auto [spun, parked] =
        expect_joint_same(random_joint(seed), "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;  // one seed's report is enough
    if (parked.events < spun.events) ++elided;
  }
  EXPECT_GT(elided, seeds * 3 / 4) << "too few runs parked";
}

TEST(JointElision, RandomizedDifferential) { differential(1, 50); }

TEST(JointElisionSoak, RandomizedDifferential) { differential(1000, 2000); }
}  // namespace
}  // namespace oqs::sim
