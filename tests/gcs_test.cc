// Tests for the group communication substrate: total order, uniform
// reliable delivery, view synchrony, and crash behaviour. The delivery
// guarantees are parameterized over both transports — the in-process
// queues and the TCP sequencer — because the SI-Rep replication protocol
// must behave identically on either (ISSUE 2 / paper §5.2).

#include "gcs/group.h"

#include <gtest/gtest.h>

#include "common/failpoint.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sirep::gcs {
namespace {

/// Records everything it sees, in order.
class RecordingListener : public GroupListener {
 public:
  void OnDeliver(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    seqnos_.push_back(message.seqno);
    payloads_.push_back(message.payload);
    types_.push_back(message.type);
  }

  void OnViewChange(const View& view) override {
    std::lock_guard<std::mutex> lock(mu_);
    views_.push_back(view);
    // Record the interleaving point: how many messages preceded the view.
    view_positions_.push_back(seqnos_.size());
  }

  std::vector<uint64_t> seqnos() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seqnos_;
  }
  std::vector<std::shared_ptr<const void>> payloads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return payloads_;
  }
  std::vector<View> views() const {
    std::lock_guard<std::mutex> lock(mu_);
    return views_;
  }
  std::vector<size_t> view_positions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_positions_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> seqnos_;
  std::vector<std::shared_ptr<const void>> payloads_;
  std::vector<std::string> types_;
  std::vector<View> views_;
  std::vector<size_t> view_positions_;
};

std::shared_ptr<const void> Payload(int v) {
  return std::make_shared<const int>(v);
}

/// Codec for the int payloads used below, for exercising the wire path
/// (as opposed to the stash fallback) on byte-shipping transports.
PayloadCodec IntCodec() {
  PayloadCodec codec;
  codec.encode = [](const void* payload, std::string* out) {
    const int v = *static_cast<const int*>(payload);
    out->assign(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  codec.decode =
      [](const std::string& in) -> Result<std::shared_ptr<const void>> {
    if (in.size() != sizeof(int)) {
      return Status::InvalidArgument("bad int payload");
    }
    int v = 0;
    memcpy(&v, in.data(), sizeof(v));
    return std::shared_ptr<const void>(std::make_shared<const int>(v));
  };
  return codec;
}

/// Checks the delivery contract from inside the callbacks: they never
/// overlap (an in-callback flag) and seqnos strictly increase. Records,
/// for every view, the seqno of the first message delivered after it,
/// which names the view's position in the total order at this member.
class SerialCheckingListener : public GroupListener {
 public:
  void OnDeliver(const Message& message) override {
    Enter();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (message.seqno <= last_seqno_) ++order_violations_;
      last_seqno_ = message.seqno;
      for (uint64_t view_id : views_awaiting_position_) {
        view_positions_[view_id] = message.seqno;
      }
      views_awaiting_position_.clear();
      ++delivered_;
    }
    Leave();
  }

  void OnViewChange(const View& view) override {
    Enter();
    {
      std::lock_guard<std::mutex> lock(mu_);
      view_positions_[view.view_id] = 0;  // 0: nothing delivered after it
      views_awaiting_position_.push_back(view.view_id);
    }
    Leave();
  }

  int overlaps() const { return overlaps_.load(); }
  int order_violations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_violations_;
  }
  size_t delivered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return delivered_;
  }
  std::map<uint64_t, uint64_t> view_positions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_positions_;
  }

 private:
  void Enter() {
    if (in_callback_.exchange(true)) overlaps_.fetch_add(1);
    std::this_thread::yield();  // widen the window an overlap would hit
  }
  void Leave() { in_callback_.store(false); }

  std::atomic<bool> in_callback_{false};
  std::atomic<int> overlaps_{0};
  mutable std::mutex mu_;
  uint64_t last_seqno_ = 0;
  int order_violations_ = 0;
  size_t delivered_ = 0;
  std::map<uint64_t, uint64_t> view_positions_;
  std::vector<uint64_t> views_awaiting_position_;
};

/// Answers every "ping" with one "pong" multicast from inside OnDeliver.
class PingPongListener : public GroupListener {
 public:
  PingPongListener(Group* group, MemberId* self) : group_(group), self_(self) {}

  void OnDeliver(const Message& message) override {
    if (message.type == "ping") {
      replied_ok_.fetch_add(
          group_->Multicast(*self_, "pong", Payload(0)).ok() ? 1 : 0);
    } else if (message.type == "pong") {
      pongs_.fetch_add(1);
    }
  }
  void OnViewChange(const View&) override {}

  int replied_ok() const { return replied_ok_.load(); }
  int pongs() const { return pongs_.load(); }

 private:
  Group* group_;
  MemberId* self_;
  std::atomic<int> replied_ok_{0};
  std::atomic<int> pongs_{0};
};

/// Records which thread ran each callback, and can stall in OnDeliver.
class ThreadRecordingListener : public GroupListener {
 public:
  explicit ThreadRecordingListener(
      std::chrono::milliseconds stall = std::chrono::milliseconds(0))
      : stall_(stall) {}

  void OnDeliver(const Message& message) override {
    entered_.store(true);
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::this_thread::get_id());
      lag_ns_.push_back(obs::MonotonicNanos() - message.enqueue_ns);
    }
    std::this_thread::sleep_for(stall_);
    returned_.store(true);
  }
  void OnViewChange(const View&) override {}

  bool entered() const { return entered_.load(); }
  bool returned() const { return returned_.load(); }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  std::vector<uint64_t> lag_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lag_ns_;
  }

 private:
  const std::chrono::milliseconds stall_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> returned_{false};
  mutable std::mutex mu_;
  std::vector<std::thread::id> threads_;
  std::vector<uint64_t> lag_ns_;
};

/// Crashes its own member from inside OnViewChange once a second member
/// joins, the way a replica crashes itself on a self-expulsion view, and
/// then lingers in that callback for 50 ms.
class SelfCrashingListener : public GroupListener {
 public:
  explicit SelfCrashingListener(Group* group) : group_(group) {}

  void set_self(MemberId self) { self_.store(self); }
  void OnDeliver(const Message&) override {}
  void OnViewChange(const View& view) override {
    const MemberId self = self_.load();
    if (view.members.size() < 2 || self == kInvalidMember || crashed_.load()) {
      return;
    }
    group_->Crash(self);  // must not wait for this very callback
    crashed_.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    returned_.store(true);
  }

  bool crashed() const { return crashed_.load(); }
  bool returned() const { return returned_.load(); }

 private:
  Group* group_;
  std::atomic<MemberId> self_{kInvalidMember};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> returned_{false};
};

uint64_t CounterValue(const Group& group, const std::string& name) {
  const obs::MetricsSnapshot snap = group.metrics().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

const char* KindName(TransportKind kind) {
  return kind == TransportKind::kTcp ? "Tcp" : "InProcess";
}

class TransportGcsTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  GroupOptions Options() const {
    GroupOptions options;
    options.transport = GetParam();
    return options;
  }
};

TEST_P(TransportGcsTest, JoinDeliversView) {
  Group group(Options());
  RecordingListener a;
  const MemberId ma = group.Join(&a);
  group.WaitForQuiescence();
  auto views = a.views();
  ASSERT_GE(views.size(), 1u);
  EXPECT_TRUE(views[0].Contains(ma));
}

TEST_P(TransportGcsTest, AllMembersReceiveAllMessages) {
  Group group(Options());
  RecordingListener a, b, c;
  const MemberId ma = group.Join(&a);
  group.Join(&b);
  group.Join(&c);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group.Multicast(ma, "m", Payload(i)).ok());
  }
  group.WaitForQuiescence();
  EXPECT_EQ(a.seqnos().size(), 10u);
  EXPECT_EQ(b.seqnos().size(), 10u);
  EXPECT_EQ(c.seqnos().size(), 10u);
}

TEST_P(TransportGcsTest, TotalOrderUnderConcurrentSenders) {
  Group group(Options());
  constexpr int kMembers = 4;
  constexpr int kPerSender = 50;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
  std::vector<MemberId> ids;
  for (int i = 0; i < kMembers; ++i) {
    listeners.push_back(std::make_unique<RecordingListener>());
    ids.push_back(group.Join(listeners.back().get()));
  }

  std::vector<std::thread> senders;
  for (int i = 0; i < kMembers; ++i) {
    senders.emplace_back([&, i] {
      for (int j = 0; j < kPerSender; ++j) {
        ASSERT_TRUE(group.Multicast(ids[i], "m", Payload(j)).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  group.WaitForQuiescence();

  // Every member saw every message, in exactly the same (seqno) order.
  // Each message is one frame and takes one slot, so the seqnos are
  // exactly 1..N and the group sent one frame per accepted multicast.
  const auto reference = listeners[0]->seqnos();
  ASSERT_EQ(reference.size(),
            static_cast<size_t>(kMembers) * kPerSender);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i], i + 1);
  }
  for (int i = 1; i < kMembers; ++i) {
    EXPECT_EQ(listeners[i]->seqnos(), reference) << "member " << i;
  }
  EXPECT_EQ(CounterValue(group, "gcs.frames_sent"), reference.size());
}

TEST_P(TransportGcsTest, SendersReceiveTheirOwnMessages) {
  Group group(Options());
  RecordingListener a;
  const MemberId ma = group.Join(&a);
  ASSERT_TRUE(group.Multicast(ma, "m", Payload(1)).ok());
  group.WaitForQuiescence();
  EXPECT_EQ(a.seqnos().size(), 1u);
}

TEST_P(TransportGcsTest, CrashedMemberStopsReceivingAndSending) {
  Group group(Options());
  RecordingListener a, b;
  const MemberId ma = group.Join(&a);
  const MemberId mb = group.Join(&b);

  ASSERT_TRUE(group.Multicast(ma, "m", Payload(1)).ok());
  group.WaitForQuiescence();
  group.Crash(mb);
  EXPECT_FALSE(group.IsAlive(mb));
  EXPECT_TRUE(group.IsAlive(ma));

  EXPECT_EQ(group.Multicast(mb, "m", Payload(2)).code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(group.Multicast(ma, "m", Payload(3)).ok());
  group.WaitForQuiescence();

  EXPECT_EQ(a.seqnos().size(), 2u);
  EXPECT_EQ(b.seqnos().size(), 1u);  // only the pre-crash message
}

TEST_P(TransportGcsTest, UniformDeliveryMessageBeforeCrashSurvives) {
  // A message multicast by a member that crashes immediately afterwards
  // must still be delivered to all survivors, *before* the view change
  // reporting the crash.
  Group group(Options());
  RecordingListener a, b;
  const MemberId ma = group.Join(&a);
  const MemberId mb = group.Join(&b);
  (void)mb;

  ASSERT_TRUE(group.Multicast(ma, "last-words", Payload(7)).ok());
  group.Crash(ma);
  group.WaitForQuiescence();

  ASSERT_EQ(b.seqnos().size(), 1u);
  // b saw: view(join b), message, view(crash a).
  auto views = b.views();
  auto positions = b.view_positions();
  ASSERT_GE(views.size(), 2u);
  const View& crash_view = views.back();
  EXPECT_FALSE(crash_view.Contains(ma));
  // The crash view arrived after the message.
  EXPECT_EQ(positions.back(), 1u);
}

TEST_P(TransportGcsTest, ViewChangeExcludesCrashedMember) {
  Group group(Options());
  RecordingListener a, b, c;
  const MemberId ma = group.Join(&a);
  const MemberId mb = group.Join(&b);
  const MemberId mc = group.Join(&c);
  group.Crash(mb);
  group.WaitForQuiescence();

  const View view = group.CurrentView();
  EXPECT_TRUE(view.Contains(ma));
  EXPECT_FALSE(view.Contains(mb));
  EXPECT_TRUE(view.Contains(mc));
  ASSERT_FALSE(a.views().empty());
  EXPECT_FALSE(a.views().back().Contains(mb));
}

TEST_P(TransportGcsTest, ViewIdsIncrease) {
  Group group(Options());
  RecordingListener a;
  group.Join(&a);
  RecordingListener b;
  const MemberId mb = group.Join(&b);
  group.Crash(mb);
  group.WaitForQuiescence();
  auto views = a.views();
  ASSERT_GE(views.size(), 3u);
  for (size_t i = 1; i < views.size(); ++i) {
    EXPECT_GT(views[i].view_id, views[i - 1].view_id);
  }
}

TEST_P(TransportGcsTest, ShutdownStopsDelivery) {
  Group group(Options());
  RecordingListener a;
  const MemberId ma = group.Join(&a);
  group.Shutdown();
  EXPECT_EQ(group.Multicast(ma, "m", Payload(1)).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(group.Join(&a), kInvalidMember);
}

TEST_P(TransportGcsTest, RegisteredCodecRoundTripsPayloads) {
  // With a codec registered, the TCP transport moves real bytes (the
  // delivered object is a decoded copy); the in-process transport keeps
  // passing the pointer through. Either way the value must survive.
  Group group(Options());
  group.RegisterCodec("int", IntCodec());
  RecordingListener a, b;
  const MemberId ma = group.Join(&a);
  group.Join(&b);
  ASSERT_TRUE(group.Multicast(ma, "int", Payload(1234)).ok());
  group.WaitForQuiescence();
  auto payloads = b.payloads();
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(*static_cast<const int*>(payloads[0].get()), 1234);
}

// --- Delivery contract under concurrent senders (the per-member baton) --

TEST_P(TransportGcsTest, CallbacksNeverOverlapAndStayOrderedUnderChurn) {
  // Three members multicast concurrently while a fifth joins and a
  // fourth crashes. Callbacks must never overlap, seqnos must strictly
  // increase, and every view must sit at the same position of the total
  // order at every member that saw it.
  Group group(Options());
  constexpr int kSenders = 3;
  constexpr int kPerSender = 150;
  std::vector<std::unique_ptr<SerialCheckingListener>> listeners;
  std::vector<MemberId> ids;
  for (int i = 0; i < kSenders + 1; ++i) {
    listeners.push_back(std::make_unique<SerialCheckingListener>());
    ids.push_back(group.Join(listeners.back().get()));
  }
  const MemberId victim = ids.back();

  std::atomic<int> sent{0};
  std::vector<std::thread> senders;
  for (int i = 0; i < kSenders; ++i) {
    senders.emplace_back([&, i] {
      for (int j = 0; j < kPerSender; ++j) {
        ASSERT_TRUE(group.Multicast(ids[i], "m", Payload(j)).ok());
        sent.fetch_add(1);
      }
    });
  }
  auto wait_sent = [&](int n) {
    while (sent.load() < n) std::this_thread::yield();
  };
  wait_sent(kSenders * kPerSender / 4);
  auto joiner = std::make_unique<SerialCheckingListener>();
  ASSERT_NE(group.Join(joiner.get()), kInvalidMember);
  wait_sent(kSenders * kPerSender / 2);
  group.Crash(victim);
  for (auto& t : senders) t.join();
  group.WaitForQuiescence();

  listeners.push_back(std::move(joiner));
  for (size_t i = 0; i < listeners.size(); ++i) {
    EXPECT_EQ(listeners[i]->overlaps(), 0) << "member " << i;
    EXPECT_EQ(listeners[i]->order_violations(), 0) << "member " << i;
  }
  for (int i = 0; i < kSenders; ++i) {
    EXPECT_EQ(listeners[i]->delivered(),
              static_cast<size_t>(kSenders * kPerSender))
        << "member " << i;
  }
  // Views: the founders saw every one; the joiner from its own join on;
  // the victim until its crash (a view it saw last may have nothing after
  // it, recorded as 0).
  const auto reference = listeners[0]->view_positions();
  EXPECT_GE(reference.size(), static_cast<size_t>(kSenders + 3));
  for (size_t i = 1; i < listeners.size(); ++i) {
    for (const auto& [view_id, position] : listeners[i]->view_positions()) {
      ASSERT_TRUE(reference.count(view_id)) << "member " << i;
      if (i == kSenders && position == 0) {
        continue;  // the victim crashed before anything followed the view
      }
      EXPECT_EQ(position, reference.at(view_id))
          << "member " << i << " view " << view_id;
    }
  }
}

TEST_P(TransportGcsTest, CallbacksNeverOverlapOnALoneMemberUnderChurn) {
  // Three threads multicast from one member while a second member joins
  // and then crashes. In-process, the founder is alone before the join
  // and after the crash, so its callbacks hop between the senders'
  // threads and its delivery thread; they must still never overlap, and
  // both members must see the same order and view positions.
  Group group(Options());
  SerialCheckingListener founder;
  const MemberId id = group.Join(&founder);
  group.WaitForQuiescence();
  constexpr int kSenders = 3;
  constexpr int kPerSender = 150;
  std::atomic<int> sent{0};
  std::vector<std::thread> senders;
  for (int i = 0; i < kSenders; ++i) {
    senders.emplace_back([&] {
      for (int j = 0; j < kPerSender; ++j) {
        ASSERT_TRUE(group.Multicast(id, "m", Payload(j)).ok());
        sent.fetch_add(1);
      }
    });
  }
  auto wait_sent = [&](int n) {
    while (sent.load() < n) std::this_thread::yield();
  };
  wait_sent(kSenders * kPerSender / 4);
  SerialCheckingListener joiner;
  const MemberId joined = group.Join(&joiner);
  ASSERT_NE(joined, kInvalidMember);
  wait_sent(kSenders * kPerSender / 2);
  group.Crash(joined);
  for (auto& t : senders) t.join();
  group.WaitForQuiescence();

  for (const SerialCheckingListener* l : {&founder, &joiner}) {
    EXPECT_EQ(l->overlaps(), 0);
    EXPECT_EQ(l->order_violations(), 0);
  }
  EXPECT_EQ(founder.delivered(), static_cast<size_t>(kSenders * kPerSender));
  const auto reference = founder.view_positions();
  for (const auto& [view_id, position] : joiner.view_positions()) {
    ASSERT_TRUE(reference.count(view_id)) << "view " << view_id;
    if (position == 0) continue;  // nothing followed it before the crash
    EXPECT_EQ(position, reference.at(view_id)) << "view " << view_id;
  }
  if (GetParam() == TransportKind::kInProcess) {
    EXPECT_GT(CounterValue(group, "gcs.sender_deliveries"), 0u);
  }
}

TEST_P(TransportGcsTest, CallbackMayMulticast) {
  // A listener that multicasts from inside OnDeliver must not deadlock,
  // whether the callback runs on the multicasting thread (in-process, a
  // lone member's own ping) or on a delivery thread (a ping from b).
  Group group(Options());
  MemberId ma = kInvalidMember;
  PingPongListener a(&group, &ma);
  ma = group.Join(&a);
  group.WaitForQuiescence();
  ASSERT_TRUE(group.Multicast(ma, "ping", Payload(1)).ok());
  group.WaitForQuiescence();
  EXPECT_EQ(a.replied_ok(), 1);
  EXPECT_EQ(a.pongs(), 1);

  RecordingListener b;
  const MemberId mb = group.Join(&b);
  group.WaitForQuiescence();
  ASSERT_TRUE(group.Multicast(mb, "ping", Payload(2)).ok());
  group.WaitForQuiescence();
  // The pong a multicast from inside its callback was delivered
  // everywhere, a included.
  EXPECT_EQ(a.replied_ok(), 2);
  EXPECT_EQ(a.pongs(), 2);
  EXPECT_EQ(b.seqnos().size(), 2u);
}

TEST_P(TransportGcsTest, ShutdownWaitsForCallbackInProgress) {
  // Shutdown() must not return while a callback is still running, on any
  // thread: in-process the slow callback runs on the multicasting
  // thread itself, over TCP on the member's delivery thread.
  Group group(Options());
  ThreadRecordingListener a(std::chrono::milliseconds(100));
  const MemberId ma = group.Join(&a);
  group.WaitForQuiescence();

  std::thread::id sender_id;
  std::thread sender([&] {
    sender_id = std::this_thread::get_id();
    group.Multicast(ma, "m", Payload(1));
  });
  while (!a.entered()) std::this_thread::yield();
  group.Shutdown();
  EXPECT_TRUE(a.returned());
  sender.join();
  if (GetParam() == TransportKind::kInProcess) {
    ASSERT_EQ(a.threads().size(), 1u);
    EXPECT_EQ(a.threads()[0], sender_id);
  }
}

TEST_P(TransportGcsTest, CrashWaitsForCallbackInProgress) {
  // Crash(m) called outside m's callbacks returns only once m's callback
  // in progress has returned, so the caller may then destroy m's
  // listener. b's message reaches a on a's delivery thread on both
  // transports, and a's callback stalls there.
  Group group(Options());
  ThreadRecordingListener a(std::chrono::milliseconds(100));
  RecordingListener b;
  const MemberId ma = group.Join(&a);
  const MemberId mb = group.Join(&b);
  group.WaitForQuiescence();
  ASSERT_TRUE(group.Multicast(mb, "m", Payload(1)).ok());
  while (!a.entered()) std::this_thread::yield();
  group.Crash(ma);
  EXPECT_TRUE(a.returned());
  EXPECT_FALSE(group.IsAlive(ma));
  group.WaitForQuiescence();
}

TEST_P(TransportGcsTest, CallbackMayCrashItsOwnMember) {
  // A callback that crashes its own member does not wait for itself; a
  // later Crash() of that member from outside (as a listener's owner
  // does before destroying it) waits for the callback to unwind.
  Group group(Options());
  SelfCrashingListener a(&group);
  const MemberId ma = group.Join(&a);
  a.set_self(ma);
  group.WaitForQuiescence();
  RecordingListener b;
  ASSERT_NE(group.Join(&b), kInvalidMember);
  while (!a.crashed()) std::this_thread::yield();
  group.Crash(ma);
  EXPECT_TRUE(a.returned());
  EXPECT_FALSE(group.IsAlive(ma));
  group.WaitForQuiescence();
  ASSERT_FALSE(b.views().empty());
  EXPECT_FALSE(b.views().back().Contains(ma));
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportGcsTest,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kTcp),
                         [](const ::testing::TestParamInfo<TransportKind>&
                                info) { return KindName(info.param); });

// --- In-process-only behaviour ---------------------------------------

TEST(GcsTest, MulticastLatencyIsApplied) {
  // The emulated network delay is an in-process-transport feature; the
  // TCP backend has real loopback latency instead.
  GroupOptions options;
  options.transport = TransportKind::kInProcess;
  options.multicast_delay = std::chrono::microseconds(20000);  // 20 ms
  Group group(options);
  RecordingListener a;
  const MemberId ma = group.Join(&a);
  group.WaitForQuiescence();

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(group.Multicast(ma, "m", Payload(1)).ok());
  group.WaitForQuiescence();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            18);
}

TEST(GcsTest, SenderDeliveryKeepsMulticastDelay) {
  // The sender delivers its own frame on its own thread, but the
  // emulated network delay still applies: the baton holder sleeps until
  // the frame's delivery time.
  GroupOptions options;
  options.transport = TransportKind::kInProcess;
  options.multicast_delay = std::chrono::microseconds(5000);  // 5 ms
  Group group(options);
  ThreadRecordingListener a;
  const MemberId ma = group.Join(&a);
  group.WaitForQuiescence();

  ASSERT_TRUE(group.Multicast(ma, "m", Payload(1)).ok());
  ASSERT_EQ(a.threads().size(), 1u);  // delivered inside Multicast()
  EXPECT_EQ(a.threads()[0], std::this_thread::get_id());
  EXPECT_GE(a.lag_ns()[0], 5'000'000u);
  EXPECT_EQ(CounterValue(group, "gcs.sender_deliveries"), 1u);
}

TEST(GcsTest, SenderDeliveriesCountOwnFrames) {
  // Every frame a lone, idle member multicasts is delivered to the
  // sender on its own thread, and counted once.
  GroupOptions options;
  options.transport = TransportKind::kInProcess;
  Group group(options);
  ThreadRecordingListener a;
  const MemberId ma = group.Join(&a);
  group.WaitForQuiescence();
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(group.Multicast(ma, "m", Payload(i)).ok());
  }
  group.WaitForQuiescence();
  EXPECT_EQ(CounterValue(group, "gcs.sender_deliveries"),
            static_cast<uint64_t>(kFrames));
  ASSERT_EQ(a.threads().size(), static_cast<size_t>(kFrames));
  for (const auto& id : a.threads()) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(GcsTest, SenderDeliversOnlyWhileAlone) {
  // With another live member, the sender's frame goes through the
  // delivery threads: nothing would pace a sender that delivered its
  // own frames. Once the other member crashed, the sender delivers.
  GroupOptions options;
  options.transport = TransportKind::kInProcess;
  Group group(options);
  ThreadRecordingListener a;
  RecordingListener b;
  const MemberId ma = group.Join(&a);
  const MemberId mb = group.Join(&b);
  group.WaitForQuiescence();

  ASSERT_TRUE(group.Multicast(ma, "m", Payload(1)).ok());
  group.WaitForQuiescence();
  group.Crash(mb);
  group.WaitForQuiescence();
  ASSERT_TRUE(group.Multicast(ma, "m", Payload(2)).ok());
  const auto threads = a.threads();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  EXPECT_EQ(threads[1], std::this_thread::get_id());
  EXPECT_EQ(CounterValue(group, "gcs.sender_deliveries"), 1u);
  EXPECT_EQ(b.seqnos().size(), 1u);
}

TEST(GcsTest, PayloadSharedNotCopied) {
  // Zero-copy dissemination is the in-process transport's contract.
  GroupOptions options;
  options.transport = TransportKind::kInProcess;
  Group group(options);
  RecordingListener a, b;
  const MemberId ma = group.Join(&a);
  group.Join(&b);
  auto payload = std::make_shared<const int>(42);
  const void* raw = payload.get();
  ASSERT_TRUE(group.Multicast(ma, "m", payload).ok());
  group.WaitForQuiescence();
  // Both members saw the same underlying object.
  EXPECT_EQ(group.messages_delivered(), 2u);
  auto delivered = a.payloads();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].get(), raw);
}

TEST(GcsTest, StashCarriesUncodedPayloadsOverTcp) {
  // Types with no registered codec still arrive on the TCP backend: the
  // payload parks in the group's stash and only a handle crosses the
  // wire. The delivered pointer is the sender's object.
  GroupOptions options;
  options.transport = TransportKind::kTcp;
  Group group(options);
  RecordingListener a, b;
  const MemberId ma = group.Join(&a);
  group.Join(&b);
  auto payload = std::make_shared<const int>(7);
  const void* raw = payload.get();
  ASSERT_TRUE(group.Multicast(ma, "opaque", payload).ok());
  group.WaitForQuiescence();
  auto delivered = b.payloads();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].get(), raw);
}

TEST(GcsTest, CleanTcpShutdownExpelsNoOne) {
  // Shutdown tears the member sockets down while the sequencer may still
  // be broadcasting; the writes that fails are the teardown itself and
  // must not count as expelled peers.
  GroupOptions options;
  options.transport = TransportKind::kTcp;
  Group group(options);
  RecordingListener a, b, c;
  const MemberId ma = group.Join(&a);
  group.Join(&b);
  group.Join(&c);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(group.Multicast(ma, "m", Payload(i)).ok());
  }
  group.WaitForQuiescence();
  EXPECT_EQ(c.seqnos().size(), 10u);
  group.Shutdown();
  EXPECT_EQ(CounterValue(group, "gcs.tcp.peers_expelled"), 0u);
}

TEST(GcsTest, TcpJoinBackoffResetsOnceSequencerIsReachable) {
  // A joiner whose first connects fail outright (network blip) climbs
  // the exponential-backoff ladder: 1ms, 2ms, 4ms, ... When a connect
  // is then *accepted* and only the welcome handshake dies, the
  // sequencer is demonstrably back — the ladder must restart at its
  // floor instead of carrying the escalated delay into the next
  // attempt.
  GroupOptions options;
  options.transport = TransportKind::kTcp;
  Group group(options);
  RecordingListener a;
  ASSERT_NE(group.Join(&a), kInvalidMember);  // sequencer is up

  failpoint::ScopedFailpoint connect_fp("gcs.tcp.connect",
                                        "error(unavailable)*3");
  failpoint::ScopedFailpoint accept_fp("gcs.tcp.accept",
                                       "error(unavailable)*1");
  RecordingListener b;
  const MemberId mb = group.Join(&b);
  ASSERT_NE(mb, kInvalidMember);
  // Three refused connects drove the backoff to 8ms; the fourth attempt
  // reached the sequencer (welcome torn down by the accept failpoint),
  // which must have reset the ladder exactly once; the fifth joined.
  EXPECT_EQ(failpoint::Fires("gcs.tcp.connect"), 3u);
  EXPECT_EQ(failpoint::Fires("gcs.tcp.accept"), 1u);
  const obs::MetricsSnapshot snap = group.metrics().Snapshot();
  ASSERT_TRUE(snap.counters.count("gcs.tcp.backoff_resets"));
  EXPECT_EQ(snap.counters.at("gcs.tcp.backoff_resets"), 1u);
  ASSERT_TRUE(snap.counters.count("gcs.tcp.connect_retries"));
  EXPECT_GE(snap.counters.at("gcs.tcp.connect_retries"), 4u);

  // The joined member is fully functional after the bumpy join.
  ASSERT_TRUE(group.Multicast(mb, "m", Payload(1)).ok());
  group.WaitForQuiescence();
  EXPECT_GE(a.seqnos().size(), 1u);
}

}  // namespace
}  // namespace sirep::gcs
