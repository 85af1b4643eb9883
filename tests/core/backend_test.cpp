#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace oddci::core {
namespace {

/// A scripted PNA stand-in: requests tasks and returns results on command.
class FakePna final : public net::Endpoint {
 public:
  FakePna(sim::Simulation& sim, net::Network& net) : sim_(&sim), net_(&net) {
    id_ = net.register_endpoint(
        this, {util::BitRate::from_mbps(100), util::BitRate::from_mbps(100),
               sim::SimTime::zero()});
  }

  void request(net::NodeId backend, InstanceId instance) {
    net_->send(id_, backend,
               std::make_shared<TaskRequestMessage>(instance, id_));
  }

  void on_message(net::NodeId from, const net::MessagePtr& message) override {
    last_from = from;
    if (message->tag() == kTagTaskAssign) {
      assigns.push_back(
          std::static_pointer_cast<const TaskAssignMessage>(message));
    } else if (message->tag() == kTagNoTask) {
      ++no_task_replies;
    }
  }

  void abort(net::NodeId backend, InstanceId instance, std::uint64_t index) {
    net_->send(id_, backend,
               std::make_shared<TaskAbortMessage>(instance, index, id_));
  }

  void complete(net::NodeId backend, const TaskAssignMessage& assign) {
    net_->send(id_, backend,
               std::make_shared<TaskResultMessage>(
                   assign.instance(), assign.task_index(), id_,
                   assign.result_size()));
  }

  net::NodeId id() const { return id_; }

  std::vector<std::shared_ptr<const TaskAssignMessage>> assigns;
  int no_task_replies = 0;
  net::NodeId last_from = net::kInvalidNode;

 private:
  sim::Simulation* sim_;
  net::Network* net_;
  net::NodeId id_ = net::kInvalidNode;
};

struct BackendTest : ::testing::Test {
  sim::Simulation sim;
  net::Network net{sim};
  net::LinkSpec fast{util::BitRate::from_mbps(100),
                     util::BitRate::from_mbps(100), sim::SimTime::zero()};

  workload::Job job = workload::make_uniform_job(
      "test", util::Bits::from_megabytes(1), 4, util::Bits::from_bytes(512),
      util::Bits::from_bytes(256), 10.0);
};

TEST_F(BackendTest, AssignsTasksInOrder) {
  Backend backend(sim, net, fast);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });
  EXPECT_TRUE(backend.job_active());
  EXPECT_EQ(backend.tasks_remaining(), 4u);

  FakePna pna(sim, net);
  pna.request(backend.node_id(), 1);
  pna.request(backend.node_id(), 1);
  sim.run();
  ASSERT_EQ(pna.assigns.size(), 2u);
  EXPECT_EQ(pna.assigns[0]->task_index(), 0u);
  EXPECT_EQ(pna.assigns[1]->task_index(), 1u);
  EXPECT_EQ(pna.assigns[0]->input_size(), util::Bits::from_bytes(512));
  EXPECT_DOUBLE_EQ(pna.assigns[0]->reference_seconds(), 10.0);
  EXPECT_FALSE(complete);
}

TEST_F(BackendTest, CompletionFiresWhenAllResultsArrive) {
  Backend backend(sim, net, fast);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });
  FakePna pna(sim, net);
  for (int i = 0; i < 4; ++i) pna.request(backend.node_id(), 1);
  sim.run();
  for (const auto& assign : pna.assigns) {
    pna.complete(backend.node_id(), *assign);
  }
  sim.run();
  EXPECT_TRUE(complete);
  EXPECT_FALSE(backend.job_active());
  EXPECT_EQ(backend.tasks_done(), 4u);
  EXPECT_EQ(backend.metrics().results_received, 4u);
  EXPECT_GE(backend.metrics().makespan_seconds(), 0.0);
  EXPECT_EQ(backend.completion_times().size(), 4u);
}

TEST_F(BackendTest, ExhaustedQueueRepliesNoTask) {
  Backend backend(sim, net, fast);
  backend.submit(job, 1, [] {});
  FakePna pna(sim, net);
  for (int i = 0; i < 5; ++i) pna.request(backend.node_id(), 1);
  sim.run();
  EXPECT_EQ(pna.assigns.size(), 4u);
  EXPECT_EQ(pna.no_task_replies, 1);
  EXPECT_EQ(backend.metrics().requests_denied, 1u);
}

TEST_F(BackendTest, WrongInstanceDenied) {
  Backend backend(sim, net, fast);
  backend.submit(job, 1, [] {});
  FakePna pna(sim, net);
  pna.request(backend.node_id(), 999);
  sim.run();
  EXPECT_TRUE(pna.assigns.empty());
  EXPECT_EQ(pna.no_task_replies, 1);
}

TEST_F(BackendTest, DuplicateResultsCountedOnce) {
  Backend backend(sim, net, fast);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });
  FakePna pna(sim, net);
  for (int i = 0; i < 4; ++i) pna.request(backend.node_id(), 1);
  sim.run();
  for (const auto& assign : pna.assigns) {
    pna.complete(backend.node_id(), *assign);
    pna.complete(backend.node_id(), *assign);  // duplicate
  }
  sim.run();
  EXPECT_TRUE(complete);
  // The duplicate of the last task lands after its first copy completed
  // the job, so it is a late straggler; the other three are duplicates of
  // still-active tasks. Either way only the first copy counts.
  EXPECT_EQ(backend.metrics().duplicate_results, 3u);
  EXPECT_EQ(backend.metrics().late_results, 1u);
  EXPECT_EQ(backend.tasks_done(), 4u);
}

TEST_F(BackendTest, OnlyTheAssigneeCanHandATaskBack) {
  Backend backend(sim, net, fast);
  backend.submit(job, 1, [] {});
  FakePna holder(sim, net);
  FakePna stranger(sim, net);
  holder.request(backend.node_id(), 1);
  sim.run();
  ASSERT_EQ(holder.assigns.size(), 1u);
  // A stale hand-back from a PNA that does not hold task 0 is ignored.
  stranger.abort(backend.node_id(), 1, 0);
  sim.run();
  EXPECT_EQ(backend.metrics().aborts_received, 0u);
  EXPECT_EQ(backend.tasks_remaining(), 4u);
  // The assignee's hand-back requeues it behind tasks 1-3.
  holder.abort(backend.node_id(), 1, 0);
  sim.run();
  EXPECT_EQ(backend.metrics().aborts_received, 1u);
  for (int i = 0; i < 4; ++i) stranger.request(backend.node_id(), 1);
  sim.run();
  ASSERT_EQ(stranger.assigns.size(), 4u);
  EXPECT_EQ(stranger.assigns[3]->task_index(), 0u);
}

TEST_F(BackendTest, TimeoutRequeuesLostTasks) {
  BackendOptions options;
  options.task_timeout = sim::SimTime::from_seconds(30);
  options.sweep_interval = sim::SimTime::from_seconds(5);
  Backend backend(sim, net, options.task_timeout > sim::SimTime::zero()
                                ? fast
                                : fast,
                  options);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });

  FakePna lost(sim, net), worker(sim, net);
  for (int i = 0; i < 4; ++i) lost.request(backend.node_id(), 1);
  sim.run_until(sim::SimTime::from_seconds(1));
  EXPECT_EQ(lost.assigns.size(), 4u);
  // `lost` never completes anything. After the timeout the tasks re-queue
  // and `worker` picks them up.
  sim.run_until(sim::SimTime::from_seconds(60));
  for (int i = 0; i < 4; ++i) worker.request(backend.node_id(), 1);
  sim.run_until(sim::SimTime::from_seconds(61));
  ASSERT_EQ(worker.assigns.size(), 4u);
  for (const auto& assign : worker.assigns) {
    worker.complete(backend.node_id(), *assign);
  }
  sim.run_until(sim::SimTime::from_seconds(62));
  EXPECT_TRUE(complete);
  EXPECT_EQ(backend.metrics().reassignments, 4u);
}

TEST_F(BackendTest, SetTaskTimeoutTakesEffectMidJob) {
  // The job starts with re-dispatch disabled; enabling it mid-job must
  // start the sweep immediately and recover the already-lost tasks.
  Backend backend(sim, net, fast);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });

  FakePna lost(sim, net), worker(sim, net);
  for (int i = 0; i < 4; ++i) lost.request(backend.node_id(), 1);
  sim.run_until(sim::SimTime::from_seconds(1));
  EXPECT_EQ(lost.assigns.size(), 4u);

  sim.run_until(sim::SimTime::from_seconds(200));
  EXPECT_EQ(backend.metrics().reassignments, 0u);  // no sweeper yet
  backend.set_task_timeout(sim::SimTime::from_seconds(30));
  sim.run_until(sim::SimTime::from_seconds(260));
  for (int i = 0; i < 4; ++i) worker.request(backend.node_id(), 1);
  sim.run_until(sim::SimTime::from_seconds(261));
  ASSERT_EQ(worker.assigns.size(), 4u);
  for (const auto& assign : worker.assigns) {
    worker.complete(backend.node_id(), *assign);
  }
  sim.run_until(sim::SimTime::from_seconds(262));
  EXPECT_TRUE(complete);
  EXPECT_EQ(backend.metrics().reassignments, 4u);

  // And zero cancels the sweep in place.
  backend.set_task_timeout(sim::SimTime::zero());
  EXPECT_EQ(backend.task_timeout(), sim::SimTime::zero());
}

TEST_F(BackendTest, RetryCapFailsTaskAndReportsJobFailure) {
  BackendOptions options;
  options.task_timeout = sim::SimTime::from_seconds(20);
  options.sweep_interval = sim::SimTime::from_seconds(5);
  options.max_task_retries = 2;
  Backend backend(sim, net, fast, options);
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; });

  // A PNA that takes every assignment and never completes any: each task
  // times out, re-queues twice, then fails — and the job fails with it.
  FakePna sink(sim, net);
  sim::PeriodicTask requests(
      sim, sim::SimTime::from_seconds(1), sim::SimTime::from_seconds(10),
      [&] {
        for (int i = 0; i < 4; ++i) sink.request(backend.node_id(), 1);
      });
  sim.run_until(sim::SimTime::from_seconds(600));

  EXPECT_TRUE(complete);  // on_complete fires on failure too...
  EXPECT_TRUE(backend.job_failed());
  EXPECT_FALSE(backend.job_active());
  EXPECT_EQ(backend.metrics().tasks_failed, 4u);
  EXPECT_EQ(backend.tasks_done(), 0u);
}

TEST_F(BackendTest, SubmitValidation) {
  Backend backend(sim, net, fast);
  backend.submit(job, 1, [] {});
  EXPECT_THROW(backend.submit(job, 2, [] {}), std::logic_error);

  Backend other(sim, net, fast);
  EXPECT_THROW(other.submit(job, kNoInstance, [] {}), std::invalid_argument);
  workload::Job bad = job;
  bad.tasks.clear();
  EXPECT_THROW(other.submit(bad, 1, [] {}), std::invalid_argument);
}

TEST_F(BackendTest, ClockStartBackdatesMakespan) {
  Backend backend(sim, net, fast);
  sim.run_until(sim::SimTime::from_seconds(100));
  bool complete = false;
  backend.submit(job, 1, [&] { complete = true; },
                 sim::SimTime::from_seconds(40));
  FakePna pna(sim, net);
  for (int i = 0; i < 4; ++i) pna.request(backend.node_id(), 1);
  sim.run_until(sim::SimTime::from_seconds(101));
  for (const auto& assign : pna.assigns) {
    pna.complete(backend.node_id(), *assign);
  }
  sim.run_until(sim::SimTime::from_seconds(102));
  ASSERT_TRUE(complete);
  // Completed shortly after t=101 with the clock started at t=40.
  EXPECT_GT(backend.metrics().makespan_seconds(), 60.0);
}

TEST_F(BackendTest, ResubmitAfterCompletionWorks) {
  Backend backend(sim, net, fast);
  bool first = false, second = false;
  backend.submit(job, 1, [&] { first = true; });
  FakePna pna(sim, net);
  for (int i = 0; i < 4; ++i) pna.request(backend.node_id(), 1);
  sim.run();
  for (const auto& assign : pna.assigns) {
    pna.complete(backend.node_id(), *assign);
  }
  sim.run();
  ASSERT_TRUE(first);
  backend.submit(job, 2, [&] { second = true; });
  EXPECT_TRUE(backend.job_active());
  pna.assigns.clear();
  for (int i = 0; i < 4; ++i) pna.request(backend.node_id(), 2);
  sim.run();
  for (const auto& assign : pna.assigns) {
    pna.complete(backend.node_id(), *assign);
  }
  sim.run();
  EXPECT_TRUE(second);
}

}  // namespace
}  // namespace oddci::core
