/**
 * @file
 * Unit tests for the timed network: latency, per-(src,dst) FIFO
 * ordering (the property every protocol proof in timed/ relies on),
 * broadcast fan-out and destination-port contention.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/event_queue.hh"
#include "timed/timed_net.hh"

namespace dir2b
{
namespace
{

Message
msg(MsgKind kind, Addr a)
{
    Message m;
    m.kind = kind;
    m.addr = a;
    return m;
}

TEST(TimedNetwork, DeliversAfterLatency)
{
    EventQueue eq;
    TimedNetwork net(eq, 2, 7, NetKind::Ideal);
    Tick deliveredAt = 0;
    net.connect(1, [&](unsigned, const Message &) {
        deliveredAt = eq.now();
    });
    net.send(0, 1, msg(MsgKind::Request, 1));
    eq.run();
    EXPECT_EQ(deliveredAt, 7u);
    EXPECT_EQ(net.stats().messages.value(), 1u);
}

TEST(TimedNetwork, FifoPerSourceDestinationPair)
{
    EventQueue eq;
    TimedNetwork net(eq, 2, 4, NetKind::Ideal);
    std::vector<Addr> order;
    net.connect(1, [&](unsigned, const Message &m) {
        order.push_back(m.addr);
    });
    // Sent at the same tick and at staggered ticks: arrival order must
    // equal send order.
    for (Addr a = 0; a < 5; ++a)
        net.send(0, 1, msg(MsgKind::Request, a));
    eq.scheduleAt(2, [&] {
        for (Addr a = 5; a < 8; ++a)
            net.send(0, 1, msg(MsgKind::Request, a));
    });
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    for (Addr a = 0; a < 8; ++a)
        EXPECT_EQ(order[static_cast<std::size_t>(a)], a);
}

TEST(TimedNetwork, FifoHoldsUnderPortContention)
{
    EventQueue eq;
    TimedNetwork net(eq, 3, 4, NetKind::Crossbar);
    std::vector<std::pair<unsigned, Addr>> order;
    std::vector<Tick> times;
    net.connect(2, [&](unsigned src, const Message &m) {
        order.emplace_back(src, m.addr);
        times.push_back(eq.now());
    });
    // Two sources blast the same destination at tick 0.
    for (Addr a = 0; a < 4; ++a) {
        net.send(0, 2, msg(MsgKind::Request, 100 + a));
        net.send(1, 2, msg(MsgKind::Request, 200 + a));
    }
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    // One delivery per cycle at the port.
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
    // Per-source order preserved.
    Addr last0 = 99;
    Addr last1 = 199;
    for (const auto &[src, a] : order) {
        if (src == 0) {
            EXPECT_EQ(a, last0 + 1);
            last0 = a;
        } else {
            EXPECT_EQ(a, last1 + 1);
            last1 = a;
        }
    }
    EXPECT_GT(net.stats().portWaitCycles.value(), 0u);
}

/** Connect endpoints 0..n-1 to nothing and collect broadcast groups
 *  as (delivery tick, destinations, last). */
struct GroupLog
{
    struct Entry
    {
        Tick at;
        std::vector<unsigned> dsts;
        bool last;
    };
    std::vector<Entry> groups;

    void
    attach(EventQueue &eq, TimedNetwork &net, unsigned n)
    {
        for (unsigned ep = 0; ep < n; ++ep)
            net.connect(ep, [](unsigned, const Message &) { FAIL(); });
        net.connectBroadcast([this, &eq](unsigned src, const Message &m,
                                         std::span<const unsigned> d,
                                         bool last) {
            EXPECT_TRUE(m.broadcast);
            EXPECT_EQ(src, 3u);
            groups.push_back({eq.now(), {d.begin(), d.end()}, last});
        });
    }
};

TEST(TimedNetwork, BroadcastFansOutToAllListed)
{
    EventQueue eq;
    TimedNetwork net(eq, 4, 3, NetKind::Ideal);
    GroupLog log;
    log.attach(eq, net, 4);
    net.broadcast(3, {0, 1, 2}, msg(MsgKind::BroadInv, 9));
    eq.run();
    // One delivery tick: one group, one dispatch, three events.
    ASSERT_EQ(log.groups.size(), 1u);
    EXPECT_EQ(log.groups[0].dsts, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_TRUE(log.groups[0].last);
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.dispatched(), 1u);
    EXPECT_EQ(net.stats().broadcasts.value(), 1u);
    EXPECT_EQ(net.stats().messages.value(), 3u);
}

TEST(TimedNetwork, BusBroadcastIsOneTransaction)
{
    EventQueue eq;
    TimedNetwork net(eq, 4, 3, NetKind::Bus);
    GroupLog log;
    log.attach(eq, net, 4);
    net.broadcast(3, {0, 1, 2}, msg(MsgKind::BroadInv, 9));
    eq.run();
    // Everyone hears the same bus slot.
    ASSERT_EQ(log.groups.size(), 1u);
    EXPECT_EQ(log.groups[0].dsts.size(), 3u);
    EXPECT_EQ(net.stats().busBusyCycles.value(), 1u);
}

// On a crossbar each copy takes its own port's next slot: copies to
// busy ports arrive later, in their own group, and the group holding
// the latest copy is marked last.
TEST(TimedNetwork, CrossbarBroadcastGroupsCopiesByDeliveryTick)
{
    EventQueue eq;
    TimedNetwork net(eq, 4, 3, NetKind::Crossbar);
    GroupLog log;
    log.attach(eq, net, 4);
    net.broadcast(3, {0, 1, 2}, msg(MsgKind::BroadInv, 9));
    net.broadcast(3, {1, 2}, msg(MsgKind::BroadQuery, 8));
    net.broadcast(3, {0, 1, 2}, msg(MsgKind::BroadInv, 7));
    eq.run();
    ASSERT_EQ(log.groups.size(), 4u);
    EXPECT_EQ(log.groups[0].at, 3u);
    EXPECT_EQ(log.groups[0].dsts, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(log.groups[1].at, 4u); // second broadcast
    EXPECT_EQ(log.groups[1].dsts, (std::vector<unsigned>{1, 2}));
    EXPECT_EQ(log.groups[2].at, 4u); // third broadcast, free port 0
    EXPECT_EQ(log.groups[2].dsts, (std::vector<unsigned>{0}));
    EXPECT_FALSE(log.groups[2].last);
    EXPECT_EQ(log.groups[3].at, 5u);
    EXPECT_EQ(log.groups[3].dsts, (std::vector<unsigned>{1, 2}));
    EXPECT_TRUE(log.groups[3].last);
    EXPECT_EQ(eq.executed(), 8u);
    EXPECT_EQ(eq.dispatched(), 4u);
    // Second broadcast: 1 + 1; third: 1 at port 0, 2 + 2 at 1 and 2.
    EXPECT_EQ(net.stats().portWaitCycles.value(), 7u);
}

TEST(TimedNetwork, BusSerialisesEverything)
{
    EventQueue eq;
    TimedNetwork net(eq, 3, 2, NetKind::Bus);
    std::vector<Tick> arrivals;
    net.connect(2, [&](unsigned, const Message &) {
        arrivals.push_back(eq.now());
    });
    net.connect(0, [](unsigned, const Message &) {});
    net.connect(1, [](unsigned, const Message &) {});
    // Different sources, different destinations: still one shared
    // medium, so deliveries are strictly staggered.
    net.send(0, 2, msg(MsgKind::Request, 1));
    net.send(1, 2, msg(MsgKind::Request, 2));
    net.send(0, 2, msg(MsgKind::Request, 3));
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_LT(arrivals[0], arrivals[1]);
    EXPECT_LT(arrivals[1], arrivals[2]);
    EXPECT_GT(net.stats().portWaitCycles.value(), 0u);
}

TEST(TimedNetwork, CountsDataMessagesSeparately)
{
    EventQueue eq;
    TimedNetwork net(eq, 2, 1, NetKind::Ideal);
    net.connect(1, [](unsigned, const Message &) {});
    net.send(0, 1, msg(MsgKind::Request, 1));
    net.send(0, 1, msg(MsgKind::GetData, 1));
    net.send(0, 1, msg(MsgKind::PutData, 1));
    eq.run();
    EXPECT_EQ(net.stats().messages.value(), 3u);
    EXPECT_EQ(net.stats().dataMessages.value(), 2u);
}

TEST(MessageToString, CoversEveryKindAndPayload)
{
    Message m;
    m.kind = MsgKind::Request;
    m.proc = 3;
    m.addr = 42;
    m.rw = RW::Write;
    EXPECT_EQ(toString(m), "REQUEST(proc=3,a=42,write)");

    m.kind = MsgKind::MGranted;
    m.granted = true;
    EXPECT_NE(toString(m).find("yes"), std::string::npos);

    m.kind = MsgKind::GetData;
    m.data = 77;
    EXPECT_NE(toString(m).find("data=77"), std::string::npos);

    m.kind = MsgKind::BroadQuery;
    m.rw = RW::Read;
    m.broadcast = true;
    const std::string s = toString(m);
    EXPECT_NE(s.find("BROADQUERY"), std::string::npos);
    EXPECT_NE(s.find("read"), std::string::npos);
    EXPECT_NE(s.find("bcast"), std::string::npos);

    for (MsgKind kind :
         {MsgKind::Request, MsgKind::MRequest, MsgKind::Eject,
          MsgKind::BroadInv, MsgKind::BroadQuery, MsgKind::MGranted,
          MsgKind::GetData, MsgKind::PutData, MsgKind::Invalidate,
          MsgKind::Purge, MsgKind::InvAck}) {
        EXPECT_FALSE(toString(kind).empty());
    }
}

} // namespace
} // namespace dir2b
