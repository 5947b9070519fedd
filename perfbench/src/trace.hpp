// The traced pass: spans recorded around the public seams the engines take
// from their caller, and the per-layer breakdown derived from them.
//
// Nothing here reaches inside src/.  The seams are the three interfaces an
// engine is handed — sim::Scheduler, sim::ChannelDiscipline and
// shard_comm::Transport — wrapped in forwarding decorators, plus the
// engine-level step(1) loop the traced runners drive instead of one
// step(max_rounds) call.  The runners mirror scenario::run / run_sharded
// call for call, so a traced run reproduces the untraced digest, Metrics
// and FaultStats bit for bit (tests/test_transparency.cpp).
//
// This is the only part of the benchmark that names RankEngine or steps an
// engine itself; the end-to-end path (workloads.hpp) does neither.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "workloads.hpp"

namespace pb::trace {

/// What a span covers.  Stored as a byte so spans cross rank processes as
/// plain bytes.
enum class Kind : std::uint8_t {
  kRun,         ///< one traced run, graph build to digest (one per rank)
  kGraphBuild,  ///< make_scenario_graph / build_topology_window
  kFaultPlan,   ///< Scenario::make_fault_plan
  kEngineCtor,  ///< Engine / AsyncEngine / RankEngine construction
  kStep,        ///< one engine step(1)
  kNodePhase,   ///< one Scheduler::for_each_node
  kResolve,     ///< one ChannelDiscipline::slot
  kExchange,    ///< one Transport::exchange
  kDigest,      ///< the result digest
  kCount,
};

const char* kind_name(Kind k);

struct Span {
  std::uint64_t start_ns = 0;  ///< steady clock (CLOCK_MONOTONIC, shared
  std::uint64_t end_ns = 0;    ///< by every rank process of the host)
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 = none
  std::uint16_t run = 0;       ///< run id: spans of one run share it
  Kind kind = Kind::kRun;
  std::uint8_t rank = 0;       ///< rank process that recorded it
};

/// In-memory span store of one process.  Spans nest by a stack on the
/// recording thread; every seam is entered from the engine's calling
/// thread, never from scheduler workers.
class Recorder {
 public:
  Recorder() { spans_.reserve(1 << 16); }

  std::int32_t open(Kind kind);
  void close(std::int32_t id);

  /// Starts a new run id; spans opened after this carry it.
  std::uint16_t next_run() { return ++run_; }
  void set_rank(std::uint8_t rank) { rank_ = rank; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends spans recorded by another process, re-basing parent indices
  /// that point into that process's own list (offset `their_base`).
  void merge(std::span<const Span> theirs, std::size_t their_base);

  /// Writes `header` (comment lines) and then every span as one
  /// tab-separated line; false on I/O failure.
  bool write(const std::string& path, const std::string& header) const;

  class Scope {
   public:
    Scope(Recorder& rec, Kind kind) : rec_(rec), id_(rec.open(kind)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    std::int32_t id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint16_t run_ = 0;
  std::uint8_t rank_ = 0;
};

/// Scheduler decorator: one span per for_each_node, and a wrapped NodeFn
/// counting dispatches per shard (each shard's counter on its own cache
/// line, written only by that shard's worker).
class TracedScheduler final : public mmn::sim::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<mmn::sim::Scheduler> inner, Recorder& rec);

  unsigned shards() const override { return inner_->shards(); }
  void for_each_node(mmn::NodeId n, NodeFn fn) override;
  const char* name() const override { return inner_->name(); }

  std::uint64_t dispatches() const;
  std::uint64_t calls() const { return calls_; }

 private:
  struct alignas(64) Counter {
    std::uint64_t value = 0;
  };
  struct Env {
    NodeFn inner;
    Counter* counters;
  };
  static void dispatch(void* env, unsigned shard, mmn::NodeId v);

  std::unique_ptr<mmn::sim::Scheduler> inner_;
  Recorder* rec_;
  std::vector<Counter> counters_;
  std::uint64_t calls_ = 0;
};

/// ChannelDiscipline decorator: one span per slot(), counting slots and
/// the writes handed in.  Every other hook forwards unchanged.
class TracedDiscipline final : public mmn::sim::ChannelDiscipline {
 public:
  TracedDiscipline(std::unique_ptr<mmn::sim::ChannelDiscipline> inner,
                   Recorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  const char* name() const override { return inner_->name(); }
  void reset(mmn::NodeId n) override { inner_->reset(n); }
  mmn::sim::SlotObservation slot(std::span<const mmn::sim::ChannelWrite> writes,
                                 mmn::sim::Channel& channel,
                                 mmn::Metrics& metrics) override;
  std::size_t backlog() const override { return inner_->backlog(); }
  bool defers() const override { return inner_->defers(); }
  void stifle(mmn::NodeId v) override { inner_->stifle(v); }

  std::uint64_t slots() const { return slots_; }
  std::uint64_t writes() const { return writes_; }

 private:
  std::unique_ptr<mmn::sim::ChannelDiscipline> inner_;
  Recorder* rec_;
  std::uint64_t slots_ = 0;
  std::uint64_t writes_ = 0;
};

/// Transport decorator: one span per exchange().
class TracedTransport final : public mmn::sim::shard_comm::Transport {
 public:
  TracedTransport(mmn::sim::shard_comm::Transport& inner, Recorder& rec)
      : inner_(&inner), rec_(&rec) {}

  unsigned rank() const override { return inner_->rank(); }
  unsigned ranks() const override { return inner_->ranks(); }
  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override;
  std::uint64_t bytes_out() const override { return inner_->bytes_out(); }
  std::uint64_t bytes_in() const override { return inner_->bytes_in(); }

 private:
  mmn::sim::shard_comm::Transport* inner_;
  Recorder* rec_;
};

/// Counts a traced run records at the seams (summed over ranks where a
/// count is per rank).
struct Counts {
  std::uint64_t node_dispatches = 0;
  std::uint64_t for_each_calls = 0;
  std::uint64_t slots = 0;           ///< discipline slot() calls
  std::uint64_t channel_writes = 0;  ///< writes handed to slot()
  std::uint64_t fault_events = 0;
  std::uint64_t graph_bytes = 0;     ///< topology_bytes(), all windows
  std::uint64_t wire_bytes = 0;      ///< transport bytes sent, all ranks
};

struct TracedRun {
  Outcome outcome;
  Counts counts;
  std::uint16_t run_id = 0;
};

/// One traced run of `w`, recording into `rec`.  Mirrors run_workload.
TracedRun run_traced(const Workload& w, std::uint64_t seed, Recorder& rec);

/// The per-layer metrics of one traced run, derived from its spans' self
/// times and the seam counts.  `untraced_run_s` is the untraced median the
/// trace overhead is taken against; `traced_run_s` the traced wall time.
std::vector<Metric> layer_metrics(const Recorder& rec, const TracedRun& run,
                                  double traced_run_s, double untraced_run_s);

}  // namespace pb::trace
