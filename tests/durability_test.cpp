// Channel admission tests for server::Durability, the TCP runtime's only
// per-channel sequencer: duplicate updates, chan_seq gaps, sender epoch
// changes and unstamped fetch traffic, driven through real opt-track
// protocols with the "transport" replaced by message capture.
#include "server/durability.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "causal/factory.hpp"
#include "causal/replica_map.hpp"
#include "metrics/metrics.hpp"

namespace ccpr::server {
namespace {

constexpr causal::VarId kShared = 0;  // replicated at sites 0 and 1
constexpr causal::VarId kRemote = 1;  // replicated at site 0 only

/// One site: an opt-track protocol whose sends go through its Durability
/// layer, plus everything that layer handed to the transport.
class Site {
 public:
  Site(causal::SiteId self, const causal::ReplicaMap& rmap) : self_(self) {
    causal::Services svc;
    svc.send = [this](net::Message m) { dur_->on_protocol_send(std::move(m)); };
    svc.now = [] { return sim::SimTime{0}; };
    svc.metrics = &metrics_;
    proto_ = causal::make_protocol(causal::Algorithm::kOptTrack, self, rmap,
                                   std::move(svc));
    restart_channels();
  }

  /// Replace the Durability layer with a fresh one (no data dir), as a
  /// restarted process without a WAL would: new random channel epoch,
  /// chan_seq restarting at 1. The protocol state is kept.
  void restart_channels() {
    Durability::Options opts;
    opts.self = self_;
    opts.sites = 2;
    dur_ = std::make_unique<Durability>(
        opts, [this](net::Message m) { sent_.push_back(std::move(m)); });
    std::string err;
    ASSERT_TRUE(dur_->recover(proto_.get(), &err)) << err;
  }

  /// Write locally and return the one update it sends to the peer.
  net::Message write(causal::VarId x, std::string data) {
    proto_->write(x, std::move(data));
    auto updates = take(net::MsgKind::kUpdate);
    EXPECT_EQ(updates.size(), 1u);
    return updates.empty() ? net::Message{} : updates.front();
  }

  void deliver(net::Message msg) {
    dur_->on_inbound(proto_.get(), std::move(msg));
  }

  /// Remove and return the captured outbound messages of `kind`.
  std::vector<net::Message> take(net::MsgKind kind) {
    std::vector<net::Message> out;
    std::vector<net::Message> rest;
    for (net::Message& m : sent_) {
      (m.kind == kind ? out : rest).push_back(std::move(m));
    }
    sent_ = std::move(rest);
    return out;
  }

  /// Everything captured, in send order.
  std::vector<net::Message> take_all() { return std::move(sent_); }

  causal::IProtocol& proto() { return *proto_; }
  Durability::Stats stats() const { return dur_->stats(); }

 private:
  causal::SiteId self_;
  metrics::Metrics metrics_;
  std::vector<net::Message> sent_;
  std::unique_ptr<Durability> dur_;
  std::unique_ptr<causal::IProtocol> proto_;
};

class DurabilityTest : public ::testing::Test {
 protected:
  causal::ReplicaMap rmap_ = causal::ReplicaMap::custom(2, {{0, 1}, {0}});
  Site a_{0, rmap_};
  Site b_{1, rmap_};
};

TEST_F(DurabilityTest, DuplicateUpdateIsAppliedOnce) {
  const net::Message u1 = a_.write(kShared, "v1");
  const net::Message u2 = a_.write(kShared, "v2");
  EXPECT_NE(u1.chan_epoch, 0u);
  EXPECT_EQ(u1.chan_seq, 1u);
  EXPECT_EQ(u2.chan_seq, 2u);

  b_.deliver(u1);
  b_.deliver(u1);  // a reconnect resend of the same frame
  EXPECT_EQ(b_.proto().peek(kShared).data, "v1");
  EXPECT_EQ(b_.stats().dup_drops, 1u);

  b_.deliver(u2);
  b_.deliver(u1);  // a stale frame overtaken by the resend
  EXPECT_EQ(b_.proto().peek(kShared).data, "v2");
  EXPECT_EQ(b_.proto().pending_update_count(), 0u);
  const auto st = b_.stats();
  EXPECT_EQ(st.dup_drops, 2u);
  EXPECT_EQ(st.gap_drops, 0u);
  EXPECT_TRUE(b_.take(net::MsgKind::kCatchupReq).empty());
}

TEST_F(DurabilityTest, GapIsDroppedAndRequestsOneCatchup) {
  const net::Message u1 = a_.write(kShared, "v1");
  a_.write(kShared, "v2");  // lost in transit (e.g. queue overflow)
  const net::Message u3 = a_.write(kShared, "v3");
  const net::Message u4 = a_.write(kShared, "v4");

  b_.deliver(u1);
  b_.deliver(u3);
  b_.deliver(u4);
  EXPECT_EQ(b_.proto().peek(kShared).data, "v1");
  const auto st = b_.stats();
  EXPECT_EQ(st.gap_drops, 2u);
  EXPECT_EQ(st.dup_drops, 0u);
  const auto reqs = b_.take(net::MsgKind::kCatchupReq);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(st.catchup_reqs_sent, 1u);
  EXPECT_EQ(reqs[0].dst, 0u);

  // The request heals the gap: the sender answers and re-sends its
  // retained updates with their original stamps, in channel order.
  a_.deliver(reqs[0]);
  const auto healing = a_.take_all();
  ASSERT_EQ(healing.size(), 4u);  // kCatchupResp, then u2..u4
  EXPECT_EQ(healing[0].kind, net::MsgKind::kCatchupResp);
  for (const net::Message& m : healing) b_.deliver(m);
  EXPECT_EQ(b_.proto().peek(kShared).data, "v4");
  EXPECT_EQ(b_.proto().pending_update_count(), 0u);
  EXPECT_EQ(b_.stats().gap_drops, 2u);
}

TEST_F(DurabilityTest, NewEpochResetsWatermark) {
  const net::Message u1 = a_.write(kShared, "v1");
  b_.deliver(u1);
  b_.deliver(a_.write(kShared, "v2"));
  EXPECT_EQ(b_.proto().peek(kShared).data, "v2");

  // The sender restarts its channels without a WAL: fresh epoch, chan_seq
  // back at 1. Under the old epoch seq 1 would be a duplicate.
  a_.restart_channels();
  const net::Message u3 = a_.write(kShared, "v3");
  EXPECT_NE(u3.chan_epoch, u1.chan_epoch);
  EXPECT_EQ(u3.chan_seq, 1u);
  b_.deliver(u3);
  EXPECT_EQ(b_.proto().peek(kShared).data, "v3");
  const auto st = b_.stats();
  EXPECT_EQ(st.dup_drops, 0u);
  EXPECT_EQ(st.gap_drops, 0u);
  EXPECT_TRUE(b_.take(net::MsgKind::kCatchupReq).empty());
}

TEST_F(DurabilityTest, FetchTrafficPassesThroughUnstamped) {
  a_.proto().write(kRemote, "r1");
  EXPECT_TRUE(a_.take_all().empty());  // site 1 holds no replica of kRemote
  std::optional<std::string> got;
  int completions = 0;
  b_.proto().read(kRemote, [&](const causal::Value& v) {
    got = v.data;
    ++completions;
  });
  const auto reqs = b_.take(net::MsgKind::kFetchReq);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].chan_epoch, 0u);
  EXPECT_EQ(reqs[0].chan_seq, 0u);

  // Duplicated requests and responses are harmless: the responder answers
  // each, and the requester matches responses by request id.
  a_.deliver(reqs[0]);
  a_.deliver(reqs[0]);
  const auto resps = a_.take(net::MsgKind::kFetchResp);
  ASSERT_EQ(resps.size(), 2u);
  for (const net::Message& r : resps) {
    EXPECT_EQ(r.chan_epoch, 0u);
    EXPECT_EQ(r.chan_seq, 0u);
    b_.deliver(r);
  }
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got, "r1");
  for (const Site* s : {&a_, &b_}) {
    EXPECT_EQ(s->stats().dup_drops, 0u);
    EXPECT_EQ(s->stats().gap_drops, 0u);
  }
}

}  // namespace
}  // namespace ccpr::server
