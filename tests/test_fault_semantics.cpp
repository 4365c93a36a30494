// Regression tests for the fault subsystem's arming/recovery semantics
// (DESIGN.md §10), pinning three behaviours around the submitted-vs-terminal
// liveness counter:
//   1. arming is idempotent: a graph session's pre-run root submissions plus
//      the run start must not stack two renewal chains per node;
//   2. scripted events survive a momentary drain (every completion of a
//      chain-shaped workload makes terminal == submitted for an instant) —
//      a reviving submission re-schedules the unfired remainder;
//   3. lost_work_area_ticks charges only destroyed *execution*, never the
//      comm/config setup window of a task killed before it started running.
// It also pins the --fault-script parser's per-field diagnostics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_model.hpp"
#include "core/graph_session.hpp"
#include "core/simulator.hpp"
#include "workload/task_graph.hpp"

namespace dreamsim {
namespace {

using core::FaultAction;
using core::GraphRunResult;
using core::MetricsReport;
using core::RunGraph;
using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;

workload::GeneratedTask MakeTask(Tick create, Tick required,
                                 std::uint32_t preferred) {
  workload::GeneratedTask t;
  t.create_time = create;
  t.preferred_config = ConfigId{preferred};
  t.needed_area = 400;
  t.required_time = required;
  return t;
}

struct RunResult {
  std::vector<SimEvent> events;
  MetricsReport report;
};

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    ASSERT_EQ(a.events[i].tick, b.events[i].tick) << "event " << i;
    ASSERT_EQ(a.events[i].task, b.events[i].task) << "event " << i;
    ASSERT_EQ(a.events[i].node, b.events[i].node) << "event " << i;
    ASSERT_EQ(a.events[i].config, b.events[i].config) << "event " << i;
  }
  EXPECT_EQ(a.report.failures_injected, b.report.failures_injected);
  EXPECT_EQ(a.report.repairs_completed, b.report.repairs_completed);
  EXPECT_EQ(a.report.tasks_killed, b.report.tasks_killed);
  EXPECT_EQ(a.report.tasks_recovered, b.report.tasks_recovered);
  EXPECT_EQ(a.report.tasks_lost_to_failure, b.report.tasks_lost_to_failure);
  EXPECT_EQ(a.report.lost_work_area_ticks, b.report.lost_work_area_ticks);
  EXPECT_EQ(a.report.total_downtime, b.report.total_downtime);
  EXPECT_EQ(a.report.completed_tasks, b.report.completed_tasks);
  EXPECT_EQ(a.report.discarded_tasks, b.report.discarded_tasks);
  EXPECT_EQ(a.report.total_simulation_time, b.report.total_simulation_time);
}

SimulationConfig ProcessConfig() {
  SimulationConfig config;
  config.nodes.count = 10;
  config.configs.count = 6;
  config.seed = 11;
  config.faults.mtbf = 1'500;
  config.faults.mttr = 300;
  return config;
}

/// The diagnostic ParseFaultScript throws for `spec`.
std::string ParseError(std::string_view spec) {
  try {
    (void)core::ParseFaultScript(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(FaultScript, ParsesEntries) {
  const std::vector<core::FaultEvent> script =
      core::ParseFaultScript(" 5:1:fail ; 9:1:repair,");
  ASSERT_EQ(script.size(), 2u);
  EXPECT_EQ(script[0].at, 5);
  EXPECT_EQ(script[0].node, NodeId{1});
  EXPECT_EQ(script[0].action, FaultAction::kFail);
  EXPECT_EQ(script[1].at, 9);
  EXPECT_EQ(script[1].action, FaultAction::kRepair);
}

// Each bad field names itself: a trailing character in the tick, a
// negative node id and one that does not fit a NodeId.
TEST(FaultScript, DiagnosticsNameTheBadField) {
  EXPECT_EQ(ParseError("5x:1:fail"),
            "fault script entry '5x:1:fail': malformed tick");
  EXPECT_EQ(ParseError("5:-1:fail"),
            "fault script entry '5:-1:fail': malformed node id");
  EXPECT_EQ(ParseError("5:4294967295:fail"),
            "fault script entry '5:4294967295:fail': malformed node id");
  EXPECT_EQ(ParseError("x:1:fail"),
            "fault script entry 'x:1:fail': malformed number");
  EXPECT_EQ(ParseError("-3:1:fail"),
            "fault script entry '-3:1:fail': tick must be >= 0");
}

// Pre-run SubmitTaskAt (how a graph session feeds its roots) and a plain
// workload run must arm one failure process per node, not two: the runs
// must be tick-for-tick identical, including Eq. 5's end time.
TEST(FaultSemantics, PreRunSubmissionsArmTheFailureProcessOnce) {
  std::vector<workload::GeneratedTask> tasks;
  for (int i = 0; i < 60; ++i) {
    tasks.push_back(MakeTask(/*create=*/i % 7, /*required=*/300 + 40 * (i % 5),
                             /*preferred=*/static_cast<std::uint32_t>(i % 6)));
  }

  RunResult via_submit;
  {
    Simulator sim(ProcessConfig());
    sim.SetEventLogger(
        [&](const SimEvent& e) { via_submit.events.push_back(e); });
    for (const workload::GeneratedTask& t : tasks) {
      (void)sim.SubmitTaskAt(t, t.create_time);
    }
    via_submit.report = sim.RunWithWorkload({});
  }

  RunResult via_workload;
  {
    Simulator sim(ProcessConfig());
    sim.SetEventLogger(
        [&](const SimEvent& e) { via_workload.events.push_back(e); });
    via_workload.report = sim.RunWithWorkload(tasks);
  }

  // Vacuous unless the process actually fired.
  ASSERT_GT(via_workload.report.failures_injected, 0u);
  ExpectSameRun(via_submit, via_workload);
}

// A chain-shaped workload drains the system at every completion
// (terminal == submitted holds for an instant before the hook submits the
// successor). Scripted events timed after the first completion must still
// fire once the revive happens.
TEST(FaultSemantics, ScriptedFaultsSurviveMomentaryDrain) {
  SimulationConfig config;
  config.nodes.count = 3;
  config.configs.count = 4;
  config.seed = 5;
  config.faults.script = {{40'000, NodeId{0}, FaultAction::kFail},
                          {40'000, NodeId{1}, FaultAction::kFail},
                          {40'000, NodeId{2}, FaultAction::kFail},
                          {45'000, NodeId{0}, FaultAction::kRepair},
                          {45'000, NodeId{1}, FaultAction::kRepair},
                          {45'000, NodeId{2}, FaultAction::kRepair}};
  Simulator sim(std::move(config));
  bool successor_submitted = false;
  sim.SetCompletionHook([&](TaskId, Tick now) {
    if (successor_submitted) return;
    successor_submitted = true;
    (void)sim.SubmitTaskAt(MakeTask(now, /*required=*/200'000, 1), now);
  });
  const MetricsReport r =
      sim.RunWithWorkload({MakeTask(0, /*required=*/10, 0)});

  ASSERT_TRUE(successor_submitted);
  // The mass failure at t=40k (long after the first task completed, while
  // the successor is running) and the repairs at t=45k both fired.
  EXPECT_EQ(r.failures_injected, 3u);
  EXPECT_EQ(r.repairs_completed, 3u);
  EXPECT_EQ(r.tasks_killed, 1u);
  // The killed successor was re-placed after repair and finished.
  EXPECT_EQ(r.tasks_recovered, 1u);
  EXPECT_EQ(r.completed_tasks, 2u);
}

// Same scenario through the public graph-session API: a two-vertex chain
// whose only fault events lie beyond the first vertex's completion.
TEST(FaultSemantics, GraphChainDeliversScriptedFaultsAfterFirstCompletion) {
  workload::TaskGraph g;
  const auto a = g.AddVertex(MakeTask(0, /*required=*/10, 0));
  const auto b = g.AddVertex(MakeTask(0, /*required=*/200'000, 1));
  g.AddEdge(a, b);

  SimulationConfig config;
  config.nodes.count = 3;
  config.configs.count = 4;
  config.seed = 5;
  config.faults.script = {{40'000, NodeId{0}, FaultAction::kFail},
                          {40'000, NodeId{1}, FaultAction::kFail},
                          {40'000, NodeId{2}, FaultAction::kFail},
                          {45'000, NodeId{0}, FaultAction::kRepair},
                          {45'000, NodeId{1}, FaultAction::kRepair},
                          {45'000, NodeId{2}, FaultAction::kRepair}};

  const GraphRunResult result = RunGraph(config, g);
  EXPECT_EQ(result.metrics.failures_injected, 3u);
  EXPECT_EQ(result.metrics.tasks_killed, 1u);
  EXPECT_EQ(result.completed_vertices, 2u);
}

// A task killed at t=1 is still inside its comm/config window (every
// catalogue configuration takes >= 10 ticks to load onto a blank node):
// no execution was destroyed, so no lost work may be charged.
TEST(FaultSemantics, KillInsideSetupWindowChargesNoLostWork) {
  SimulationConfig config;
  config.nodes.count = 4;
  config.configs.count = 4;
  config.seed = 7;
  config.faults.script = {{1, NodeId{0}, FaultAction::kFail},
                          {1, NodeId{1}, FaultAction::kFail},
                          {1, NodeId{2}, FaultAction::kFail},
                          {1, NodeId{3}, FaultAction::kFail}};
  Simulator sim(std::move(config));
  const MetricsReport r =
      sim.RunWithWorkload({MakeTask(0, /*required=*/1'000, 0)});

  ASSERT_EQ(r.tasks_killed, 1u);  // placed at t=0, killed mid-setup at t=1
  EXPECT_EQ(r.lost_work_area_ticks, 0u);
}

// A task killed mid-execution charges area x executed ticks only: the
// charge must exclude the >= 10-tick configuration load (plus any comm
// time) that preceded execution.
TEST(FaultSemantics, KillDuringExecutionExcludesSetupTicks) {
  SimulationConfig config;
  config.nodes.count = 4;
  config.configs.count = 4;
  config.seed = 7;
  const Tick kill_at = 5'000;
  config.faults.script = {{kill_at, NodeId{0}, FaultAction::kFail},
                          {kill_at, NodeId{1}, FaultAction::kFail},
                          {kill_at, NodeId{2}, FaultAction::kFail},
                          {kill_at, NodeId{3}, FaultAction::kFail}};
  Simulator sim(std::move(config));
  Tick placed_at = 0;
  ConfigId placed_config;
  sim.SetEventLogger([&](const SimEvent& e) {
    if (e.kind == SimEvent::Kind::kPlaced) {
      placed_at = e.tick;
      placed_config = e.config;
    }
  });
  const MetricsReport r =
      sim.RunWithWorkload({MakeTask(0, /*required=*/100'000, 0)});

  ASSERT_EQ(r.tasks_killed, 1u);
  ASSERT_TRUE(placed_config.valid());
  const std::uint64_t area =
      sim.store().configs().Get(placed_config).required_area;
  EXPECT_GT(r.lost_work_area_ticks, 0u);
  // Strictly less than the naive placement-to-kill span: the setup window
  // (config load >= 10 ticks) must not be charged.
  EXPECT_LE(r.lost_work_area_ticks, area * (kill_at - placed_at - 10));
}

}  // namespace
}  // namespace dreamsim
