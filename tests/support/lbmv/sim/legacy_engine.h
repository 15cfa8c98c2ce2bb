#pragma once

/// \file legacy_engine.h
/// The seed `std::function`-per-event simulation loop, preserved verbatim.
///
/// engine.h replaced this loop with a typed, allocation-free event
/// representation.  The original is kept, outside the library, for one
/// job: test_sim_determinism proves the typed loop produces bit-identical
/// completion traces (job ids, start/finish times) to this loop for fixed
/// seeds across every ServiceModel.  It is compiled into that test only
/// (target lbmv_legacy_sim); the include path keeps its original
/// "lbmv/sim/legacy_engine.h" spelling.
///
/// Everything in lbmv::sim::legacy mirrors the seed implementation: a
/// priority queue of (time, seq, std::function) events, a closure-scheduling
/// FCFS server and Poisson job source.  Do not "improve" this code — its
/// value is being exactly what the seed shipped.

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "lbmv/sim/server.h"  // shared ServiceModel / Job / Completion
#include "lbmv/util/rng.h"

namespace lbmv::sim::legacy {

/// The seed event loop: schedule closures at absolute times and drain them
/// in (time, insertion) order.
class Simulation {
 public:
  using Handler = std::function<void()>;

  void schedule(SimTime time, Handler handler);
  void schedule_after(SimTime delay, Handler handler);
  bool step();
  void run();
  void run_until(SimTime t);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t processed() const { return processed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

/// The seed FCFS server: schedules one heap-allocated completion closure
/// per job.  RNG draw order is identical to sim::Server.
class Server {
 public:
  Server(Simulation& sim, std::string name, double execution_value,
         ServiceModel model, util::Rng rng);

  void submit(const Job& job);

  [[nodiscard]] const std::vector<Completion>& completions() const {
    return completions_;
  }
  [[nodiscard]] double busy_time() const { return busy_time_; }
  [[nodiscard]] bool busy() const { return busy_; }

 private:
  void begin_service();

  Simulation* sim_;
  std::string name_;
  double execution_value_;
  ServiceModel model_;
  double mean_service_;
  util::Rng rng_;

  std::vector<Job> queue_;
  std::size_t head_ = 0;
  bool busy_ = false;
  double busy_time_ = 0.0;
  std::vector<Completion> completions_;
};

/// The seed Poisson source: one closure per arrival, categorical routing.
class JobSource {
 public:
  JobSource(Simulation& sim, std::span<Server* const> servers,
            std::vector<double> rates, SimTime horizon, util::Rng rng);

  void start();

  [[nodiscard]] std::uint64_t jobs_emitted() const { return next_job_id_; }

 private:
  void arrival();

  Simulation* sim_;
  std::vector<Server*> servers_;
  std::vector<double> rates_;
  double total_rate_;
  SimTime horizon_;
  util::Rng rng_;
  std::uint64_t next_job_id_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace lbmv::sim::legacy
