// Tests for the Node model (Eq. 1) and its config-task-pair slots.
#include "resource/node.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

Configuration MakeConfig(std::uint32_t id, Area area) {
  Configuration c;
  c.id = ConfigId{id};
  c.required_area = area;
  c.config_time = 10;
  return c;
}

TEST(Node, ConstructionInvariants) {
  Node n(NodeId{3}, 2000, FamilyId{1}, Caps{512, 40, 400});
  EXPECT_EQ(n.id().value(), 3u);
  EXPECT_EQ(n.total_area(), 2000);
  EXPECT_EQ(n.available_area(), 2000);
  EXPECT_TRUE(n.blank());
  EXPECT_FALSE(n.busy());
  EXPECT_EQ(n.config_count(), 0u);
  EXPECT_EQ(n.reconfig_count(), 0u);
  EXPECT_EQ(n.caps().embedded_memory_kb, 512);
}

TEST(Node, RejectsNonPositiveArea) {
  EXPECT_THROW(Node(NodeId{0}, 0, FamilyId{0}, Caps{}), std::invalid_argument);
  EXPECT_THROW(Node(NodeId{0}, -5, FamilyId{0}, Caps{}), std::invalid_argument);
}

TEST(Node, SendBitstreamConsumesAreaAndCounts) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex s0 = n.SendBitstream(MakeConfig(0, 300));
  EXPECT_EQ(n.available_area(), 700);
  EXPECT_EQ(n.config_count(), 1u);
  EXPECT_EQ(n.reconfig_count(), 1u);
  EXPECT_FALSE(n.blank());
  EXPECT_TRUE(n.Slot(s0).idle());

  const SlotIndex s1 = n.SendBitstream(MakeConfig(1, 700));
  EXPECT_EQ(n.available_area(), 0);
  EXPECT_EQ(n.config_count(), 2u);
  EXPECT_NE(s0, s1);
}

TEST(Node, SendBitstreamRejectsOversize) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  EXPECT_THROW((void)n.SendBitstream(MakeConfig(0, 1001)), std::logic_error);
  (void)n.SendBitstream(MakeConfig(0, 600));
  EXPECT_THROW((void)n.SendBitstream(MakeConfig(1, 500)), std::logic_error);
}

TEST(Node, SendBitstreamRejectsAnInvalidConfigId) {
  // An invalid config marks a dead slot, so no live slot may hold one.
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  Configuration c = MakeConfig(0, 100);
  c.id = ConfigId::invalid();
  EXPECT_THROW((void)n.TrySendBitstream(c), std::invalid_argument);
  EXPECT_TRUE(n.blank());
  EXPECT_EQ(n.available_area(), 1000);
}

TEST(Node, TaskLifecycleOnSlot) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex slot = n.SendBitstream(MakeConfig(0, 400));
  n.AddTaskToNode(slot, TaskId{7});
  EXPECT_TRUE(n.busy());
  EXPECT_EQ(n.running_tasks(), 1u);
  EXPECT_FALSE(n.Slot(slot).idle());
  EXPECT_EQ(n.Slot(slot).task, TaskId{7});

  n.RemoveTaskFromNode(slot);
  EXPECT_FALSE(n.busy());
  EXPECT_TRUE(n.Slot(slot).idle());
  // The configuration survives the task.
  EXPECT_EQ(n.config_count(), 1u);
  EXPECT_EQ(n.available_area(), 600);
}

TEST(Node, AddTaskErrors) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex slot = n.SendBitstream(MakeConfig(0, 400));
  EXPECT_THROW(n.AddTaskToNode(99, TaskId{1}), std::out_of_range);
  EXPECT_THROW(n.AddTaskToNode(slot, TaskId::invalid()),
               std::invalid_argument);
  n.AddTaskToNode(slot, TaskId{1});
  EXPECT_THROW(n.AddTaskToNode(slot, TaskId{2}), std::logic_error);
}

TEST(Node, RemoveTaskErrors) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex slot = n.SendBitstream(MakeConfig(0, 400));
  EXPECT_THROW(n.RemoveTaskFromNode(slot), std::logic_error);  // idle slot
  EXPECT_THROW(n.RemoveTaskFromNode(5), std::out_of_range);
}

TEST(Node, MakeNodeBlankRestoresArea) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  (void)n.SendBitstream(MakeConfig(0, 300));
  (void)n.SendBitstream(MakeConfig(1, 300));
  n.MakeNodeBlank();
  EXPECT_TRUE(n.blank());
  EXPECT_EQ(n.available_area(), 1000);
  EXPECT_EQ(n.config_count(), 0u);
  // Reconfiguration history is preserved.
  EXPECT_EQ(n.reconfig_count(), 2u);
}

TEST(Node, MakeNodeBlankRejectsRunningTasks) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex slot = n.SendBitstream(MakeConfig(0, 300));
  n.AddTaskToNode(slot, TaskId{1});
  EXPECT_THROW(n.MakeNodeBlank(), std::logic_error);
}

TEST(Node, MakeNodePartiallyBlankReclaimsOneSlot) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 300));
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 200));
  n.MakeNodePartiallyBlank(a, 300);
  EXPECT_EQ(n.available_area(), 800);
  EXPECT_EQ(n.config_count(), 1u);
  EXPECT_FALSE(n.SlotLive(a));
  EXPECT_TRUE(n.SlotLive(b));
}

TEST(Node, MakeNodePartiallyBlankLastSlotMakesBlank) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 300));
  n.MakeNodePartiallyBlank(a, 300);
  EXPECT_TRUE(n.blank());
  EXPECT_EQ(n.available_area(), 1000);
}

TEST(Node, MakeNodePartiallyBlankErrors) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 300));
  n.AddTaskToNode(a, TaskId{1});
  EXPECT_THROW(n.MakeNodePartiallyBlank(a, 300), std::logic_error);  // busy
  n.RemoveTaskFromNode(a);
  EXPECT_THROW(n.MakeNodePartiallyBlank(a, 9999), std::logic_error);  // Eq.4
}

TEST(Node, SlotReuseAfterReclaim) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 300));
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 300));
  n.MakeNodePartiallyBlank(a, 300);
  // The freed slot index is recycled for the next configuration.
  const SlotIndex c = n.SendBitstream(MakeConfig(2, 100));
  EXPECT_EQ(c, a);
  EXPECT_TRUE(n.SlotLive(b));
  EXPECT_EQ(n.Slot(c).config, ConfigId{2});
}

// Pins the slot indices a reclaim sequence hands out: freed slots come back
// newest first, and a node that empties (by its last partial reclaim or by
// MakeNodeBlank) starts again from slot 0. Completion events carry slot
// indices, so any other order would change decisions.
TEST(Node, SlotReusePinnedForReclaimSequences) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  const auto send = [&n] { return n.SendBitstream(MakeConfig(0, 100)); };
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(send(), 1u);
  EXPECT_EQ(send(), 2u);
  EXPECT_EQ(send(), 3u);
  n.MakeNodePartiallyBlank(1, 100);
  n.MakeNodePartiallyBlank(3, 100);
  n.MakeNodePartiallyBlank(0, 100);
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(send(), 3u);
  EXPECT_EQ(send(), 1u);
  EXPECT_EQ(send(), 4u);
  n.MakeNodePartiallyBlank(2, 100);
  EXPECT_EQ(send(), 2u);
  // Emptying the node slot by slot forgets the old slot range.
  for (const SlotIndex slot : {4u, 0u, 2u, 1u, 3u}) {
    n.MakeNodePartiallyBlank(slot, 100);
  }
  EXPECT_TRUE(n.blank());
  EXPECT_EQ(n.slot_bound(), 0u);
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(send(), 1u);
  EXPECT_EQ(send(), 2u);
  n.MakeNodePartiallyBlank(0, 100);
  n.MakeNodeBlank();
  EXPECT_EQ(n.slot_bound(), 0u);
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(send(), 1u);
  n.MakeNodePartiallyBlank(0, 100);
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(send(), 2u);
}

// The same rule against a model, over random sends and reclaims: a stack
// of freed slots, cleared whenever the node empties.
TEST(Node, SlotReuseFollowsTheFreedStack) {
  Rng rng(2024);
  Node n(NodeId{0}, 1600, FamilyId{0}, Caps{});
  std::vector<bool> live;
  std::vector<SlotIndex> freed;
  std::size_t live_count = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool send = live_count == 0 ||
                      (live_count < 16 && rng.uniform_int(0, 2) != 0);
    if (step % 997 == 0 && n.running_tasks() == 0) {
      n.MakeNodeBlank();
      live.clear();
      freed.clear();
      live_count = 0;
      continue;
    }
    if (send) {
      SlotIndex expected;
      if (!freed.empty()) {
        expected = freed.back();
        freed.pop_back();
        live[expected] = true;
      } else {
        expected = static_cast<SlotIndex>(live.size());
        live.push_back(true);
      }
      ASSERT_EQ(n.SendBitstream(MakeConfig(expected % 7, 100)), expected)
          << "step " << step;
      ++live_count;
    } else {
      SlotIndex victim = 0;
      auto skip = rng.uniform_int(0, static_cast<std::int64_t>(live_count) - 1);
      for (SlotIndex s = 0; s < live.size(); ++s) {
        if (live[s] && skip-- == 0) {
          victim = s;
          break;
        }
      }
      n.MakeNodePartiallyBlank(victim, 100);
      live[victim] = false;
      freed.push_back(victim);
      if (--live_count == 0) {
        live.clear();
        freed.clear();
      }
    }
    ASSERT_EQ(n.config_count(), live_count);
    ASSERT_EQ(n.slot_bound(), live.size());
  }
}

TEST(Node, ForEachSlotVisitsOnlyLive) {
  Node n(NodeId{0}, 2000, FamilyId{0}, Caps{});
  (void)n.SendBitstream(MakeConfig(0, 300));
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 300));
  (void)n.SendBitstream(MakeConfig(2, 300));
  n.MakeNodePartiallyBlank(b, 300);
  int visited = 0;
  n.ForEachSlot([&](SlotIndex slot, const ConfigTaskPair& pair) {
    ++visited;
    EXPECT_NE(slot, b);
    EXPECT_NE(pair.config, ConfigId{1});
  });
  EXPECT_EQ(visited, 2);
}

TEST(Node, MultipleRunningTasks) {
  Node n(NodeId{0}, 3000, FamilyId{0}, Caps{});
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 1000));
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 1000));
  n.AddTaskToNode(a, TaskId{1});
  n.AddTaskToNode(b, TaskId{2});
  EXPECT_EQ(n.running_tasks(), 2u);
  n.RemoveTaskFromNode(a);
  EXPECT_EQ(n.running_tasks(), 1u);
  EXPECT_TRUE(n.busy());
}

}  // namespace
}  // namespace dreamsim::resource
