// DataflowExecutor coverage: dependency release, external gates, the
// ordered submission lane under adversarial completion order, inline
// (pool-less) execution, graph reuse and validation, and a throwing node.
#include "exec/dataflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"

namespace spdkfac::exec {
namespace {

using Node = DataflowExecutor::Node;
using NodeKind = DataflowExecutor::NodeKind;

/// Thread-safe trace of execution events.
struct Trace {
  std::mutex mu;
  std::vector<std::string> events;
  void add(std::string e) {
    std::lock_guard lock(mu);
    events.push_back(std::move(e));
  }
  std::vector<std::string> get() {
    std::lock_guard lock(mu);
    return events;
  }
};

Node compute(Trace& trace, const std::string& name, std::vector<int> deps,
             int external = 0) {
  Node n;
  n.kind = NodeKind::kCompute;
  n.deps = std::move(deps);
  n.external_deps = external;
  n.work = [&trace, name] { trace.add(name); };
  return n;
}

Node submission(Trace& trace, const std::string& name, std::vector<int> deps,
                int external = 0) {
  Node n;
  n.kind = NodeKind::kSubmission;
  n.deps = std::move(deps);
  n.external_deps = external;
  n.work = [&trace, name] { trace.add(name); };
  return n;
}

TEST(Dataflow, RespectsDependenciesInlineAndPooled) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(3);
    ThreadPool* p = workers == 0 ? nullptr : &pool;
    Trace trace;
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, "a", {}));
    nodes.push_back(compute(trace, "b", {0}));
    nodes.push_back(compute(trace, "c", {0, 1}));
    DataflowExecutor ex;
    ex.begin(std::move(nodes), {}, p);
    ex.wait();
    EXPECT_TRUE(ex.idle());
    EXPECT_EQ(trace.get(), (std::vector<std::string>{"a", "b", "c"}));
  }
}

TEST(Dataflow, ExternalGatesHoldBackReadyNodes) {
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "gated", {}, /*external=*/2));
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {}, nullptr);
  EXPECT_FALSE(ex.idle());
  EXPECT_TRUE(trace.get().empty());
  ex.satisfy(0);
  EXPECT_TRUE(trace.get().empty());  // one of two gates released
  ex.satisfy(0);
  ex.wait();
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"gated"}));
}

TEST(Dataflow, LaneFiresInOrderRegardlessOfReadiness) {
  // Submission s1 becomes dep-ready *before* s0; the lane must still fire
  // s0 first.  Retirement flows through complete(), out of order.
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(submission(trace, "s0", {}, /*external=*/1));  // 0
  nodes.push_back(submission(trace, "s1", {}));                  // 1
  nodes.push_back(compute(trace, "after", {0, 1}));              // 2
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {0, 1}, nullptr);
  EXPECT_TRUE(trace.get().empty());  // s1 ready but behind s0 in the lane
  ex.satisfy(0);
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"s0", "s1"}));
  ex.complete(1);  // async ops may finish out of submission order
  ex.complete(0);
  ex.wait();
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"s0", "s1", "after"}));
}

TEST(Dataflow, MixedGraphDrivesComputeBetweenSubmissions) {
  // compute -> submission -> (completion) -> compute chain, pooled.
  ThreadPool pool(2);
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "pack", {}));           // 0
  nodes.push_back(submission(trace, "allreduce", {0}));  // 1
  nodes.push_back(compute(trace, "unpack", {1}));        // 2
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {1}, &pool);
  // Emulate the engine: wait until the submission fired, then complete it.
  while (trace.get().size() < 2) {}
  ex.complete(1);
  ex.wait();
  EXPECT_EQ(trace.get(),
            (std::vector<std::string>{"pack", "allreduce", "unpack"}));
}

TEST(Dataflow, GraphsAreReusableAfterDrain) {
  Trace trace;
  DataflowExecutor ex;
  for (int round = 0; round < 3; ++round) {
    // Two steps: `"r" + std::to_string(...)` trips GCC 12's bogus
    // -Wrestrict (GCC PR 105329).
    std::string name = "r";
    name += std::to_string(round);
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, name, {}));
    ex.begin(std::move(nodes), {}, nullptr);
    ex.wait();
  }
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"r0", "r1", "r2"}));
}

TEST(Dataflow, BeginValidatesGraph) {
  Trace trace;
  DataflowExecutor ex;

  std::vector<Node> dangling;
  dangling.push_back(compute(trace, "x", {5}));
  EXPECT_THROW(ex.begin(std::move(dangling), {}, nullptr),
               std::invalid_argument);

  std::vector<Node> missing_lane;
  missing_lane.push_back(submission(trace, "s", {}, 1));
  EXPECT_THROW(ex.begin(std::move(missing_lane), {}, nullptr),
               std::invalid_argument);

  std::vector<Node> not_submission;
  not_submission.push_back(compute(trace, "c", {}, 1));
  EXPECT_THROW(ex.begin(std::move(not_submission), {0}, nullptr),
               std::invalid_argument);
}

TEST(Dataflow, BeginRefusesWhileInFlight) {
  Trace trace;
  DataflowExecutor ex;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "held", {}, /*external=*/1));
  ex.begin(std::move(nodes), {}, nullptr);
  std::vector<Node> next;
  next.push_back(compute(trace, "next", {}));
  EXPECT_THROW(ex.begin(std::move(next), {}, nullptr), std::logic_error);
  ex.satisfy(0);
  ex.wait();
}

TEST(Dataflow, WideFanOutRetiresEverything) {
  // 1 root -> 64 children -> 1 join, on a small pool; exercises concurrent
  // retire paths.
  ThreadPool pool(3);
  Trace trace;
  std::atomic<int> children{0};
  std::vector<Node> nodes(66);
  nodes[0] = compute(trace, "root", {});
  std::vector<int> all_children;
  for (int i = 1; i <= 64; ++i) {
    nodes[i].kind = NodeKind::kCompute;
    nodes[i].deps = {0};
    nodes[i].work = [&children] { children.fetch_add(1); };
    all_children.push_back(i);
  }
  nodes[65] = compute(trace, "join", all_children);
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {}, &pool);
  ex.wait();
  EXPECT_EQ(children.load(), 64);
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"root", "join"}));
}

TEST(Dataflow, ThrowingComputeNodeSurfacesFromWait) {
  // A compute node that throws (a non-SPD factor's Cholesky, say) poisons
  // the graph: wait() rethrows the exception — on a pool worker it must
  // not end the process — its successors never run, and the executor
  // takes the next graph.
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    ThreadPool* p = workers == 0 ? nullptr : &pool;
    Trace trace;
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, "a", {}));
    Node boom;
    boom.kind = NodeKind::kCompute;
    boom.deps = {0};
    boom.work = [] { throw std::runtime_error("factor is not SPD"); };
    nodes.push_back(std::move(boom));
    nodes.push_back(compute(trace, "after", {1}));
    DataflowExecutor ex;
    ex.begin(std::move(nodes), {}, p);
    try {
      ex.wait();
      ADD_FAILURE() << "wait() did not rethrow the node's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "factor is not SPD");
    }
    EXPECT_TRUE(ex.idle());
    EXPECT_EQ(trace.get(), (std::vector<std::string>{"a"}));

    std::vector<Node> clean;
    clean.push_back(compute(trace, "clean", {}));
    clean.push_back(compute(trace, "clean2", {0}));
    ex.begin(std::move(clean), {}, p);
    EXPECT_NO_THROW(ex.wait());
    EXPECT_EQ(trace.get(),
              (std::vector<std::string>{"a", "clean", "clean2"}));
  }
}

}  // namespace
}  // namespace spdkfac::exec
