/** @file FIFO and engine-configuration tests. */
#include <gtest/gtest.h>

#include "core/config.h"

#include "fifo.h"

namespace flowgnn {
namespace {

TEST(Fifo, FifoOrdering)
{
    Fifo<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.front(), 3);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(Fifo, BackpressureWhenFull)
{
    Fifo<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3)) << "push into a full queue must fail";
    EXPECT_EQ(q.size(), 2u);
    q.pop();
    EXPECT_TRUE(q.push(3));
}

TEST(Fifo, StatisticsTrackPeakAndPushes)
{
    Fifo<int> q(8);
    for (int i = 0; i < 5; ++i)
        q.push(i);
    q.pop();
    q.pop();
    q.push(9);
    EXPECT_EQ(q.total_pushes(), 6u);
    EXPECT_EQ(q.peak_occupancy(), 5u);
}

TEST(Fifo, CapacityOneBehavesLikeRegister)
{
    Fifo<int> q(1);
    EXPECT_TRUE(q.push(7));
    EXPECT_FALSE(q.push(8));
    EXPECT_EQ(q.pop(), 7);
    EXPECT_TRUE(q.push(8));
}

TEST(EngineConfig, DefaultsArePaperConfiguration)
{
    EngineConfig cfg;
    EXPECT_EQ(cfg.p_node, 2u);
    EXPECT_EQ(cfg.p_edge, 4u);
    EXPECT_EQ(cfg.mode, PipelineMode::kFlowGnn);
    EXPECT_DOUBLE_EQ(cfg.clock_mhz, 300.0);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(EngineConfig, ValidationRejectsZeros)
{
    EngineConfig cfg;
    cfg.p_node = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.p_scatter = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.queue_depth = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.clock_mhz = -1.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EngineConfig, LabelsFollowPaperNaming)
{
    EngineConfig cfg;
    cfg.p_apply = 1;
    cfg.p_scatter = 2;
    EXPECT_EQ(cfg.label(), "FlowGNN-1-2");
    cfg.mode = PipelineMode::kBaselineDataflow;
    EXPECT_EQ(cfg.label(), "baseline-dataflow");
    EXPECT_STREQ(pipeline_mode_name(PipelineMode::kNonPipelined),
                 "non-pipeline");
}

} // namespace
} // namespace flowgnn
