// TCP sequencer transport: the group runs over real loopback sockets
// with one sequencer role that assigns the global total order, the way
// a fixed-sequencer GCS (or Spread's token holder for a single segment)
// does. Every broadcast record — data frame or view change — occupies
// one slot of a single *stream index* space; members buffer records,
// ack them immediately, and only deliver up to the stable watermark the
// sequencer computes from the acks of all live members. That
// ack-before-deliver discipline is what makes delivery uniform: a
// record is never delivered anywhere until every live member holds it,
// so a crash after first delivery cannot lose it at the survivors.
//
// Wire records (all little-endian, `u32 length` prefix over the body):
//
//   member -> sequencer
//     kSend   string frame                         multicast request
//     kAck    u64 stream_index                     "I buffered record i"
//     kCrash  (empty)                              crash marker; sent
//                                                  after the member's
//                                                  final kSend, so the
//                                                  sequencer orders all
//                                                  pre-crash messages
//                                                  before the view change
//   sequencer -> member
//     kWelcome u32 member_id
//     kData    u64 stream_index, u64 seqno,        one seqno per frame
//              string frame
//     kStable  u64 stream_index                    deliver up to here
//     kView    u64 stream_index, u64 view_id,
//              u32 n, n x u32 members
//
// Everything still lives in one process (the reproduction's replicas
// are threads), so CurrentView()/IsAlive() read sequencer state through
// shared memory instead of a membership protocol; the data path,
// however, moves only serialized bytes through the sockets.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/sync.h"
#include "common/thread_name.h"
#include "gcs/socket_util.h"
#include "gcs/transport.h"
#include "sql/serde.h"

namespace sirep::gcs {

namespace {

enum Opcode : uint8_t {
  kWelcome = 1,
  kView = 2,
  kData = 3,
  kStable = 4,
  kSend = 5,
  kAck = 6,
  kCrash = 7,
};

using net::ConfigureSocket;
using net::ReadRecord;
using net::RecordBuffer;
using net::WriteRecord;
using net::kRecvPollPeriod;

/// A blocking socket send that makes no progress for this long means the
/// peer is hung: the sequencer expels it (view change) instead of
/// wedging every broadcast behind its full buffer.
constexpr std::chrono::milliseconds kSendTimeout{2000};
/// Total budget for AddMember's connect + welcome handshake, retried
/// with bounded exponential backoff (a flapping or briefly unreachable
/// sequencer degrades join latency, not liveness).
constexpr std::chrono::milliseconds kConnectDeadline{2000};

class TcpSequencerTransport : public Transport {
  struct Endpoint;  // defined in the private section below

  /// The endpoint whose delivery thread this is, if any: a callback
  /// that crashes its own member does not wait for itself.
  static inline thread_local const Endpoint* t_delivering = nullptr;

 public:
  explicit TcpSequencerTransport(const TransportOptions& options)
      : seq_next_member_(options.first_member) {
    if (options.registry != nullptr) {
      h_delivery_lag_us_ =
          options.registry->GetLatencyHistogram("gcs.delivery_lag_us");
      g_queue_depth_ = options.registry->GetGauge("gcs.queue_depth");
      c_reconnects_ = options.registry->GetCounter("gcs.tcp.connect_retries");
      c_peer_expelled_ = options.registry->GetCounter("gcs.tcp.peers_expelled");
      c_dup_dropped_ = options.registry->GetCounter("gcs.tcp.dup_frames_dropped");
      c_self_expelled_ = options.registry->GetCounter("gcs.tcp.self_expulsions");
      c_backoff_resets_ = options.registry->GetCounter("gcs.tcp.backoff_resets");
    }
    StartSequencer();
  }

  ~TcpSequencerTransport() override { Shutdown(); }

  bool needs_encoding() const override { return true; }

  MemberId AddMember(FrameSink* sink) override {
    if (shutdown_.load(std::memory_order_acquire) || listen_fd_ < 0) {
      return kInvalidMember;
    }
    // Connect + welcome handshake, retried with bounded exponential
    // backoff until kConnectDeadline: a sequencer that is briefly
    // unreachable or drops the connection mid-handshake (e.g. the
    // "gcs.tcp.accept" failpoint) costs join latency, not the join.
    const auto deadline = std::chrono::steady_clock::now() + kConnectDeadline;
    auto backoff = std::chrono::milliseconds(1);
    auto endpoint = std::make_unique<Endpoint>();
    while (true) {
      if (shutdown_.load(std::memory_order_acquire)) return kInvalidMember;
      bool connect_accepted = false;
      if (TryConnect(endpoint.get(), &connect_accepted)) break;
      if (std::chrono::steady_clock::now() + backoff >= deadline) {
        SIREP_WLOG << "GCS/tcp: join failed; connect deadline exhausted";
        return kInvalidMember;
      }
      if (c_reconnects_ != nullptr) c_reconnects_->Increment();
      if (connect_accepted && backoff > std::chrono::milliseconds(1)) {
        // The TCP connect was accepted and only the welcome failed: the
        // sequencer process is reachable again after whatever blip drove
        // the backoff up. Restart the ladder at its floor — otherwise a
        // member that survived two blips begins its third recovery at
        // max backoff and pays ~100ms of join latency for a sequencer
        // that is already back.
        backoff = std::chrono::milliseconds(1);
        if (c_backoff_resets_ != nullptr) c_backoff_resets_->Increment();
      }
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
    }
    const MemberId id = endpoint->id;
    endpoint->sink = sink;
    Endpoint* ep = endpoint.get();
    {
      std::lock_guard<std::mutex> lock(endpoints_mu_);
      endpoints_[id] = std::move(endpoint);
    }
    ep->rx_thread = std::thread([this, ep] { ReceiveLoop(ep); });
    ep->delivery_thread = std::thread([this, ep] { DeliveryLoop(ep); });
    NameThread(ep->rx_thread, "rx/" + std::to_string(id));
    NameThread(ep->delivery_thread, "dlv/" + std::to_string(id));
    // Balanced by AcceptMember: reading the welcome only proves the
    // sequencer accepted us, not that it has broadcast the join view yet,
    // and WaitForQuiescence() must cover that view.
    joins_submitted_.fetch_add(1, std::memory_order_acq_rel);
    return id;
  }

  /// One connect + welcome-handshake attempt. On success fills
  /// endpoint->fd and endpoint->id and returns true; on any failure
  /// (including the "gcs.tcp.connect" failpoint simulating a transient
  /// network error) cleans up and returns false for the caller to retry.
  /// `connect_accepted` reports the stage the attempt reached: true iff
  /// the TCP connect itself succeeded and only the welcome handshake
  /// failed afterwards — the caller's signal that the sequencer is
  /// reachable and escalated backoff is no longer warranted.
  bool TryConnect(Endpoint* endpoint, bool* connect_accepted) {
    *connect_accepted = false;
    if (failpoint::AnyArmed() &&
        !failpoint::EvalStatus("gcs.tcp.connect").ok()) {
      return false;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    ConfigureSocket(fd, kSendTimeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    *connect_accepted = true;
    // The first record on a fresh connection is always kWelcome. Bound
    // the wait: a sequencer that accepted the TCP connection but never
    // welcomes us (hung, or injected accept failure) is a failed attempt.
    const auto welcome_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    endpoint->rx_buffer = RecordBuffer();
    std::string body;
    const auto keep_waiting = [&] {
      return !shutdown_.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < welcome_deadline;
    };
    if (!ReadRecord(fd, &endpoint->rx_buffer, &body, keep_waiting) ||
        body.empty() || static_cast<uint8_t>(body[0]) != kWelcome) {
      ::close(fd);
      return false;
    }
    size_t pos = 1;
    uint32_t id = kInvalidMember;
    if (!sql::DecodeU32(body, &pos, &id).ok()) {
      ::close(fd);
      return false;
    }
    endpoint->fd = fd;
    endpoint->id = id;
    return true;
  }

  void Crash(MemberId member) override {
    Endpoint* ep = FindEndpoint(member);
    if (ep == nullptr) return;
    if (!ep->crashed.exchange(true)) {
      SIREP_ILOG << "GCS/tcp: member " << member << " crashed";
      // Balanced by RemoveMemberLocked; WaitForQuiescence() holds out
      // until the sequencer has processed the marker (and thus broadcast
      // the resulting view change).
      crashes_submitted_.fetch_add(1, std::memory_order_acq_rel);
      // The marker is written after any in-flight Multicast() completes
      // its kSend (same mutex), so on the sequencer's stream every
      // pre-crash message precedes the crash — and therefore precedes
      // the view change the sequencer broadcasts for it.
      std::lock_guard<std::mutex> lock(ep->send_mu);
      std::string body(1, static_cast<char>(kCrash));
      WriteRecord(ep->fd, body);
      ::shutdown(ep->fd, SHUT_WR);
    }
    if (t_delivering == ep) return;
    // The delivery thread starts no callback once it sees `crashed`
    // (BeginCallback), so waiting out the one in progress is enough; its
    // threads are joined only at Shutdown().
    std::unique_lock<std::mutex> lock(ep->callback_mu);
    ep->callback_cv.wait(lock, [&] { return !ep->in_callback; });
  }

  bool IsAlive(MemberId member) const override {
    if (shutdown_.load(std::memory_order_acquire)) return false;
    // The endpoint flag, not sequencer membership: Crash() sets it before
    // returning, while the sequencer learns of the crash asynchronously —
    // and the caller expects IsAlive(m) == false as soon as Crash(m)
    // returns.
    std::lock_guard<std::mutex> lock(endpoints_mu_);
    auto it = endpoints_.find(member);
    return it != endpoints_.end() &&
           !it->second->crashed.load(std::memory_order_acquire);
  }

  Status Multicast(Frame frame) override {
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::Unavailable("group is shut down");
    }
    Endpoint* ep = FindEndpoint(frame.sender);
    if (ep == nullptr) {
      return Status::InvalidArgument("unknown sender " +
                                     std::to_string(frame.sender));
    }
    if (ep->crashed.load(std::memory_order_acquire)) {
      return Status::Unavailable("sender " + std::to_string(frame.sender) +
                                 " has crashed");
    }
    // Fault injection on the member->sequencer link. "gcs.tcp.send"
    // drops (error) or slows (delay) the frame before it reaches the
    // wire; "gcs.tcp.send.reset" tears the whole connection down with no
    // kCrash marker — an unannounced drop both the sequencer (EOF =>
    // expel + view change) and this member (EOF => self-expulsion) must
    // discover on their own.
    if (const auto hit = SIREP_FAILPOINT_HIT("gcs.tcp.send"); hit.fired) {
      const Status injected = hit.ToStatus("gcs.tcp.send");
      if (!injected.ok()) return injected;
    }
    if (SIREP_FAILPOINT_HIT("gcs.tcp.send.reset").fired) {
      SIREP_WLOG << "GCS/tcp: injected connection reset at member "
                 << frame.sender;
      std::lock_guard<std::mutex> lock(ep->send_mu);
      // SHUT_RDWR, not a lingering close: queued bytes already accepted
      // by the kernel still reach the sequencer (TCP flushes before the
      // FIN), matching a process that died after its last full send.
      ::shutdown(ep->fd, SHUT_RDWR);
      return Status::Unavailable("injected connection reset");
    }
    std::string body(1, static_cast<char>(kSend));
    sql::EncodeString(frame.encoded, &body);
    sends_submitted_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(ep->send_mu);
    if (ep->crashed.load(std::memory_order_acquire) ||
        !WriteRecord(ep->fd, body)) {
      sends_submitted_.fetch_sub(1, std::memory_order_acq_rel);
      return Status::Unavailable("sender " + std::to_string(frame.sender) +
                                 " disconnected");
    }
    return Status::OK();
  }

  View CurrentView() const override {
    std::lock_guard<std::mutex> lock(seq_mu_);
    View view;
    view.view_id = seq_view_id_;
    for (const auto& [id, fd] : seq_live_) view.members.push_back(id);
    return view;
  }

  void WaitForQuiescence() override {
    std::unique_lock<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.wait(lock, [&] { return QuiescentLocked(); });
  }

  void Shutdown() override {
    if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
    // Wake every blocked recv/accept; threads observe shutdown_ and exit.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(endpoints_mu_);
      for (auto& [id, ep] : endpoints_) {
        ep->crashed.store(true, std::memory_order_release);
        ::shutdown(ep->fd, SHUT_RDWR);
        ep->rx_queue.Close();
      }
    }
    if (sequencer_thread_.joinable()) sequencer_thread_.join();
    {
      std::lock_guard<std::mutex> lock(endpoints_mu_);
      for (auto& [id, ep] : endpoints_) {
        if (ep->rx_thread.joinable()) ep->rx_thread.join();
        if (ep->delivery_thread.joinable()) ep->delivery_thread.join();
        ::close(ep->fd);
      }
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    quiesce_cv_.notify_all();
  }

 private:
  /// One record of the member-side delivery stream, already acked and
  /// waiting for the stable watermark to reach its index.
  struct RxRecord {
    /// kDisconnect: pushed by the rx thread when the connection dies
    /// without this member having crashed or the transport shutting
    /// down — the sequencer dropped *us*. The delivery thread turns it
    /// into a synthetic self-excluding view change so the member's
    /// listener learns it was expelled (and can crash itself) instead
    /// of running on as a zombie that clients still get routed to.
    enum class Kind { kFrame, kView, kStableMark, kDisconnect } kind =
        Kind::kFrame;
    uint64_t stream_index = 0;
    uint64_t seqno = 0;       // kFrame
    Frame frame;              // kFrame
    View view;                // kView
    uint64_t stable = 0;      // kStableMark
    uint64_t rx_ns = 0;       // kFrame: MonotonicNanos at socket receive
  };

  struct Endpoint {
    MemberId id = kInvalidMember;
    int fd = -1;
    FrameSink* sink = nullptr;
    std::atomic<bool> crashed{false};
    /// Serializes all writes to fd: kSend (Multicast), kAck (rx thread),
    /// kCrash (Crash).
    std::mutex send_mu;
    RecordBuffer rx_buffer;
    /// rx thread -> delivery thread. Keeping the socket drained on a
    /// dedicated thread means a slow listener can never back-pressure
    /// the sequencer's blocking broadcast writes into a deadlock.
    WorkQueue<RxRecord> rx_queue;
    std::thread rx_thread;
    std::thread delivery_thread;
    /// Highest stream index this member has delivered (quiescence).
    std::atomic<uint64_t> delivered_index{0};
    /// Set while the delivery thread runs a callback; Crash() waits on
    /// callback_cv for it to clear.
    std::mutex callback_mu;
    std::condition_variable callback_cv;
    bool in_callback = false;
  };

  /// Sequencer-side per-broadcast ack bookkeeping.
  struct PendingRecord {
    std::vector<MemberId> waiting;  // live members that have not acked
  };

  // ---------------------------------------------------------------- //
  // Sequencer role                                                   //
  // ---------------------------------------------------------------- //

  void StartSequencer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    sequencer_thread_ = std::thread([this] { SequencerLoop(); });
    NameThread(sequencer_thread_, "gcs-seq");
  }

  void SequencerLoop() {
    std::unordered_map<int, RecordBuffer> rx;  // fd -> parse buffer
    std::unordered_map<int, MemberId> who;     // fd -> member
    while (!shutdown_.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds;
      fds.push_back({listen_fd_, POLLIN, 0});
      {
        std::lock_guard<std::mutex> lock(seq_mu_);
        for (const auto& [id, fd] : seq_live_) fds.push_back({fd, POLLIN, 0});
      }
      const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
      if (ready <= 0) continue;
      if (fds[0].revents != 0) AcceptMember(&rx, &who);
      for (size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        DrainMember(fds[i].fd, &rx, &who);
      }
    }
  }

  void AcceptMember(std::unordered_map<int, RecordBuffer>* rx,
                    std::unordered_map<int, MemberId>* who) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    // Injected accept failure: drop the connection before the welcome.
    // The joiner sees EOF on its welcome read and retries with backoff.
    if (failpoint::AnyArmed() &&
        !failpoint::EvalStatus("gcs.tcp.accept").ok()) {
      SIREP_WLOG << "GCS/tcp: injected accept failure";
      ::close(fd);
      return;
    }
    ConfigureSocket(fd, kSendTimeout);
    std::lock_guard<std::mutex> lock(seq_mu_);
    const MemberId id = seq_next_member_++;
    std::string welcome(1, static_cast<char>(kWelcome));
    sql::EncodeU32(id, &welcome);
    if (!WriteRecord(fd, welcome)) {
      ::close(fd);
      return;
    }
    seq_live_[id] = fd;
    (*rx)[fd];
    (*who)[fd] = id;
    BroadcastViewLocked();
    joins_processed_.fetch_add(1, std::memory_order_acq_rel);
    NotifyQuiescence();
  }

  void DrainMember(int fd, std::unordered_map<int, RecordBuffer>* rx,
                   std::unordered_map<int, MemberId>* who) {
    auto it = who->find(fd);
    if (it == who->end()) return;
    const MemberId id = it->second;
    RecordBuffer& buf = (*rx)[fd];
    bool eof = false;
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf.Append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      eof = true;  // EOF or hard error
      break;
    }
    // Process every complete record read so far — crucially *before*
    // acting on EOF, so kSends and kAcks that preceded a crash marker
    // (or the connection teardown) still take effect first. Only a
    // crash marker (or corruption) cuts the record stream short.
    bool crashed = false;
    std::string body;
    std::lock_guard<std::mutex> lock(seq_mu_);
    while (!crashed && buf.Next(&body)) {
      if (seq_live_.count(id) == 0) return;  // already removed
      HandleRecordLocked(id, body, &crashed);
    }
    if (buf.corrupt()) crashed = true;
    if ((eof || crashed) && seq_live_.count(id) != 0) RemoveMemberLocked(id);
  }

  void HandleRecordLocked(MemberId id, const std::string& body, bool* gone) {
    if (body.empty()) return;
    const uint8_t op = static_cast<uint8_t>(body[0]);
    size_t pos = 1;
    switch (op) {
      case kSend: {
        std::string frame;
        if (!sql::DecodeString(body, &pos, &frame).ok()) {
          SIREP_ELOG << "GCS/tcp: malformed kSend from member " << id;
          *gone = true;
          return;
        }
        const uint64_t idx = ++seq_next_index_;
        last_index_.store(idx, std::memory_order_release);
        BroadcastLocked(idx, MakeDataRecord(idx, ++seq_next_seqno_, frame));
        sends_sequenced_.fetch_add(1, std::memory_order_acq_rel);
        NotifyQuiescence();
        break;
      }
      case kAck: {
        uint64_t idx = 0;
        if (!sql::DecodeU64(body, &pos, &idx).ok()) return;
        auto it = seq_pending_.find(idx);
        if (it == seq_pending_.end()) return;
        auto& waiting = it->second.waiting;
        waiting.erase(std::remove(waiting.begin(), waiting.end(), id),
                      waiting.end());
        AdvanceStableLocked();
        break;
      }
      case kCrash:
        *gone = true;
        break;
      default:
        SIREP_ELOG << "GCS/tcp: unexpected opcode " << int{op}
                   << " from member " << id;
        *gone = true;
        break;
    }
  }

  static std::string MakeDataRecord(uint64_t idx, uint64_t seqno,
                                    const std::string& frame) {
    std::string data(1, static_cast<char>(kData));
    sql::EncodeU64(idx, &data);
    sql::EncodeU64(seqno, &data);
    sql::EncodeString(frame, &data);
    return data;
  }

  /// Broadcasts one stream record to all live members and registers it
  /// for ack tracking. A member whose socket cannot take the record
  /// within the send timeout is hung or gone — it gets expelled (view
  /// change) instead of wedging every future broadcast behind its full
  /// buffer. Caller holds seq_mu_.
  void BroadcastLocked(uint64_t idx, const std::string& body) {
    PendingRecord pending;
    for (const auto& [mid, mfd] : seq_live_) pending.waiting.push_back(mid);
    seq_pending_[idx] = std::move(pending);
    std::vector<MemberId> dead;
    for (const auto& [mid, mfd] : seq_live_) {
      if (!WriteRecord(mfd, body)) dead.push_back(mid);
    }
    if (seq_live_.empty()) AdvanceStableLocked();
    ExpelLocked(dead);
  }

  /// Advances the stable watermark over fully-acked records and tells
  /// everyone. Caller holds seq_mu_.
  void AdvanceStableLocked() {
    uint64_t advanced = seq_stable_;
    while (true) {
      auto it = seq_pending_.find(advanced + 1);
      if (it == seq_pending_.end() || !it->second.waiting.empty()) break;
      seq_pending_.erase(it);
      ++advanced;
    }
    if (advanced == seq_stable_) return;
    seq_stable_ = advanced;
    std::string body(1, static_cast<char>(kStable));
    sql::EncodeU64(seq_stable_, &body);
    std::vector<MemberId> dead;
    for (const auto& [mid, mfd] : seq_live_) {
      if (!WriteRecord(mfd, body)) dead.push_back(mid);
    }
    ExpelLocked(dead);
  }

  /// Removes members whose broadcast write failed (hung peer hit the
  /// send timeout, or the connection died). Collected-then-removed so
  /// the caller's seq_live_ iteration stays valid; the recursion through
  /// RemoveMemberLocked -> BroadcastViewLocked -> BroadcastLocked is
  /// bounded by the member count (each removal shrinks seq_live_).
  /// Once Shutdown has begun, a failed write is its own socket teardown,
  /// not a hung peer: nobody is expelled. Caller holds seq_mu_.
  void ExpelLocked(const std::vector<MemberId>& dead) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    for (const MemberId mid : dead) {
      if (seq_live_.count(mid) == 0) continue;  // already expelled
      SIREP_WLOG << "GCS/tcp: expelling member " << mid
                 << " (broadcast write failed or timed out)";
      if (c_peer_expelled_ != nullptr) c_peer_expelled_->Increment();
      RemoveMemberLocked(mid);
    }
  }

  /// Removes a crashed/disconnected member: waive its outstanding acks,
  /// advance stability, then broadcast the new view — which, being a
  /// later stream record, is delivered after everything the member sent
  /// before it crashed (view synchrony). Caller holds seq_mu_.
  void RemoveMemberLocked(MemberId id) {
    auto it = seq_live_.find(id);
    if (it == seq_live_.end()) return;
    const int fd = it->second;
    seq_live_.erase(it);
    ::close(fd);
    // Deliberately NOT marking the endpoint crashed here. The close()
    // above sends the member a FIN; its rx loop sees EOF and queues a
    // disconnect, and SelfExpel then both marks it crashed (which is
    // what un-blocks the quiescence predicate) and delivers the
    // self-excluding view change. Pre-marking it crashed from this
    // (sequencer) thread races ahead of the member's rx loop and
    // suppresses that notification — leaving the expelled replica
    // serving snapshot reads as a zombie.
    for (auto& [idx, pending] : seq_pending_) {
      auto& waiting = pending.waiting;
      waiting.erase(std::remove(waiting.begin(), waiting.end(), id),
                    waiting.end());
    }
    BroadcastViewLocked();
    AdvanceStableLocked();
    // Counts every removal (crash marker or EOF), so it can run ahead of
    // crashes_submitted_ — the quiescence predicate uses >=.
    crashes_processed_.fetch_add(1, std::memory_order_acq_rel);
    NotifyQuiescence();
  }

  /// Broadcasts the current membership as a stream record. Caller holds
  /// seq_mu_.
  void BroadcastViewLocked() {
    ++seq_view_id_;
    const uint64_t idx = ++seq_next_index_;
    last_index_.store(idx, std::memory_order_release);
    std::string body(1, static_cast<char>(kView));
    sql::EncodeU64(idx, &body);
    sql::EncodeU64(seq_view_id_, &body);
    sql::EncodeU32(static_cast<uint32_t>(seq_live_.size()), &body);
    for (const auto& [mid, mfd] : seq_live_) sql::EncodeU32(mid, &body);
    BroadcastLocked(idx, body);
  }

  // ---------------------------------------------------------------- //
  // Member role                                                      //
  // ---------------------------------------------------------------- //

  /// Reads records off the socket, acks them, and hands them to the
  /// delivery thread. Never does application work: its only job is to
  /// keep the socket drained and the ack latency low.
  void ReceiveLoop(Endpoint* ep) {
    std::string body;
    const auto keep_waiting = [this, ep] {
      // Idle is normal here: keep blocking while the member is alive.
      return !shutdown_.load(std::memory_order_acquire) &&
             !ep->crashed.load(std::memory_order_acquire);
    };
    bool dup_pending = false;
    RxRecord dup_record;
    while (ReadRecord(ep->fd, &ep->rx_buffer, &body, keep_waiting)) {
      if (shutdown_.load(std::memory_order_acquire)) break;
      if (body.empty()) continue;
      const uint8_t op = static_cast<uint8_t>(body[0]);
      size_t pos = 1;
      RxRecord record;
      switch (op) {
        case kData: {
          record.kind = RxRecord::Kind::kFrame;
          if (!sql::DecodeU64(body, &pos, &record.stream_index).ok() ||
              !sql::DecodeU64(body, &pos, &record.seqno).ok() ||
              !sql::DecodeString(body, &pos, &record.frame.encoded).ok()) {
            SIREP_ELOG << "GCS/tcp: malformed kData at member " << ep->id;
            continue;
          }
          record.rx_ns = obs::MonotonicNanos();
          // "gcs.tcp.recv" delays the ack (stalls the stable watermark —
          // a slow consumer); "gcs.tcp.recv.dup" re-enqueues the frame
          // (a retransmitting network) to prove delivery dedupes.
          SIREP_FAILPOINT_HIT("gcs.tcp.recv");
          if (SIREP_FAILPOINT_HIT("gcs.tcp.recv.dup").fired) {
            dup_pending = true;
            dup_record = record;
          }
          SendAck(ep, record.stream_index);
          break;
        }
        case kView: {
          record.kind = RxRecord::Kind::kView;
          uint32_t n = 0;
          if (!sql::DecodeU64(body, &pos, &record.stream_index).ok() ||
              !sql::DecodeU64(body, &pos, &record.view.view_id).ok() ||
              !sql::DecodeU32(body, &pos, &n).ok()) {
            continue;
          }
          record.view.members.resize(n);
          bool ok = true;
          for (uint32_t i = 0; i < n; ++i) {
            ok = ok && sql::DecodeU32(body, &pos, &record.view.members[i]).ok();
          }
          if (!ok) continue;
          std::sort(record.view.members.begin(), record.view.members.end());
          SendAck(ep, record.stream_index);
          break;
        }
        case kStable: {
          record.kind = RxRecord::Kind::kStableMark;
          if (!sql::DecodeU64(body, &pos, &record.stable).ok()) continue;
          break;
        }
        default:
          continue;
      }
      ep->rx_queue.Push(std::move(record));
      if (dup_pending) {
        dup_pending = false;
        ep->rx_queue.Push(dup_record);  // injected duplicate frame
      }
    }
    // Unexpected EOF — the socket died while this member believed itself
    // alive, i.e. the sequencer expelled us (send timeout, reset, accept
    // churn). Queue a disconnect event so the delivery thread can raise
    // the self-excluding view change in stream order.
    if (!shutdown_.load(std::memory_order_acquire) &&
        !ep->crashed.load(std::memory_order_acquire)) {
      RxRecord disconnect;
      disconnect.kind = RxRecord::Kind::kDisconnect;
      ep->rx_queue.Push(std::move(disconnect));
    }
    ep->rx_queue.Close();
  }

  void SendAck(Endpoint* ep, uint64_t idx) {
    std::string body(1, static_cast<char>(kAck));
    sql::EncodeU64(idx, &body);
    std::lock_guard<std::mutex> lock(ep->send_mu);
    if (!ep->crashed.load(std::memory_order_acquire)) {
      WriteRecord(ep->fd, body);
    }
  }

  /// Delivers buffered records in stream order up to the stable
  /// watermark. TCP preserves the sequencer's write order, so the
  /// buffer is a plain FIFO. Duplicate records (injected retransmits)
  /// are dropped by the last-delivered index; a kDisconnect from the rx
  /// thread becomes a synthetic self-excluding view change.
  void DeliveryLoop(Endpoint* ep) {
    t_delivering = ep;
    std::deque<RxRecord> buffered;
    uint64_t stable = 0;
    uint64_t last_delivered = 0;
    View last_view;  // latest membership this member has seen
    while (true) {
      auto record = ep->rx_queue.Pop();
      if (!record.has_value()) break;
      if (record->kind == RxRecord::Kind::kDisconnect) {
        SelfExpel(ep, last_view);
        continue;
      }
      if (record->kind == RxRecord::Kind::kStableMark) {
        stable = std::max(stable, record->stable);
      } else {
        buffered.push_back(std::move(*record));
      }
      if (g_queue_depth_ != nullptr) {
        g_queue_depth_->Set(static_cast<int64_t>(buffered.size()));
      }
      while (!buffered.empty() && buffered.front().stream_index <= stable) {
        RxRecord front = std::move(buffered.front());
        buffered.pop_front();
        if (front.stream_index <= last_delivered) {
          // Duplicate of an already-delivered record: drop it. The ack
          // we re-sent is harmless (the sequencer ignores acks for
          // records past the watermark).
          if (c_dup_dropped_ != nullptr) c_dup_dropped_->Increment();
          continue;
        }
        last_delivered = front.stream_index;
        if (BeginCallback(ep)) {
          if (front.kind == RxRecord::Kind::kFrame) {
            if (h_delivery_lag_us_ != nullptr) {
              // Socket receive -> stable delivery: the ack-stability
              // wait the sequencer's uniform-delivery discipline adds.
              h_delivery_lag_us_->Observe(front.rx_ns == 0
                                              ? 0.0
                                              : obs::NanosToUs(
                                                    obs::MonotonicNanos() -
                                                    front.rx_ns));
            }
            ep->sink->OnFrame(front.seqno, front.frame);
          } else {
            last_view = front.view;
            ep->sink->OnViewChange(front.view);
          }
          EndCallback(ep);
        }
        ep->delivered_index.store(front.stream_index,
                                  std::memory_order_release);
        NotifyQuiescence();
      }
    }
  }

  /// The sequencer dropped this member's connection while the member
  /// still considered itself alive: deliver a synthetic view change
  /// that excludes the member itself, so its listener observes the
  /// expulsion (SI-Rep replicas crash themselves on it — a replica the
  /// group has moved on from must not keep serving clients as a
  /// zombie). Runs on the delivery thread, in stream order.
  void SelfExpel(Endpoint* ep, const View& last_view) {
    if (!BeginCallback(ep, /*crash=*/true)) {
      NotifyQuiescence();
      return;  // lost a race with Crash()/Shutdown(): nothing to report
    }
    SIREP_WLOG << "GCS/tcp: member " << ep->id
               << " lost its connection; delivering self-expulsion view";
    if (c_self_expelled_ != nullptr) c_self_expelled_->Increment();
    View synthetic;
    synthetic.view_id = last_view.view_id + 1;
    for (const MemberId m : last_view.members) {
      if (m != ep->id) synthetic.members.push_back(m);
    }
    ep->sink->OnViewChange(synthetic);
    EndCallback(ep);
    NotifyQuiescence();
  }

  /// Marks a callback of `ep` in progress unless the member crashed;
  /// with `crash`, also marks it crashed. Under callback_mu, so a
  /// Crash() that then finds no callback in progress knows none will
  /// start.
  static bool BeginCallback(Endpoint* ep, bool crash = false) {
    std::lock_guard<std::mutex> lock(ep->callback_mu);
    if (crash ? ep->crashed.exchange(true) : ep->crashed.load()) return false;
    ep->in_callback = true;
    return true;
  }

  static void EndCallback(Endpoint* ep) {
    std::lock_guard<std::mutex> lock(ep->callback_mu);
    ep->in_callback = false;
    ep->callback_cv.notify_all();
  }

  // ---------------------------------------------------------------- //
  // Shared state / quiescence                                        //
  // ---------------------------------------------------------------- //

  Endpoint* FindEndpoint(MemberId id) {
    std::lock_guard<std::mutex> lock(endpoints_mu_);
    auto it = endpoints_.find(id);
    return it == endpoints_.end() ? nullptr : it->second.get();
  }

  /// Quiescent = every submitted send has been sequenced and every live
  /// member has delivered up to the last broadcast stream record. Reads
  /// only atomics + endpoints_mu_ — deliberately NOT seq_mu_, because
  /// the sequencer thread notifies the quiescence cv while holding
  /// seq_mu_ and taking it here would invert the lock order.
  bool QuiescentLocked() {
    if (shutdown_.load(std::memory_order_acquire)) return true;
    if (sends_submitted_.load(std::memory_order_acquire) !=
        sends_sequenced_.load(std::memory_order_acquire)) {
      return false;
    }
    if (crashes_processed_.load(std::memory_order_acquire) <
        crashes_submitted_.load(std::memory_order_acquire)) {
      return false;
    }
    if (joins_processed_.load(std::memory_order_acquire) <
        joins_submitted_.load(std::memory_order_acquire)) {
      return false;
    }
    const uint64_t last = last_index_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> ep_lock(endpoints_mu_);
    for (const auto& [id, ep] : endpoints_) {
      if (ep->crashed.load(std::memory_order_acquire)) continue;
      if (ep->delivered_index.load(std::memory_order_acquire) < last) {
        return false;
      }
    }
    return true;
  }

  void NotifyQuiescence() {
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread sequencer_thread_;
  std::atomic<bool> shutdown_{false};

  /// Sequencer state. std::map keeps view member lists sorted for free.
  mutable std::mutex seq_mu_;
  std::map<MemberId, int> seq_live_;  // member -> fd
  MemberId seq_next_member_;
  uint64_t seq_next_index_ = 0;
  uint64_t seq_next_seqno_ = 0;
  uint64_t seq_stable_ = 0;
  uint64_t seq_view_id_ = 0;
  std::unordered_map<uint64_t, PendingRecord> seq_pending_;
  /// Mirror of seq_next_index_ readable without seq_mu_ (quiescence).
  std::atomic<uint64_t> last_index_{0};

  mutable std::mutex endpoints_mu_;
  std::unordered_map<MemberId, std::unique_ptr<Endpoint>> endpoints_;

  std::atomic<uint64_t> sends_submitted_{0};
  std::atomic<uint64_t> sends_sequenced_{0};
  std::atomic<uint64_t> crashes_submitted_{0};
  std::atomic<uint64_t> crashes_processed_{0};
  std::atomic<uint64_t> joins_submitted_{0};
  std::atomic<uint64_t> joins_processed_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  obs::Histogram* h_delivery_lag_us_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Counter* c_reconnects_ = nullptr;
  obs::Counter* c_peer_expelled_ = nullptr;
  obs::Counter* c_dup_dropped_ = nullptr;
  obs::Counter* c_self_expelled_ = nullptr;
  obs::Counter* c_backoff_resets_ = nullptr;
};

}  // namespace

std::unique_ptr<Transport> MakeTcpSequencerTransport(
    const TransportOptions& options) {
  return std::make_unique<TcpSequencerTransport>(options);
}

}  // namespace sirep::gcs
