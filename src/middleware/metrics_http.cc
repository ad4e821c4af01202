#include "middleware/metrics_http.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/thread_name.h"
#include "gcs/socket_util.h"

namespace sirep::middleware {

namespace {

constexpr size_t kMaxRequestBytes = 8192;

/// How long a client may take to send its request line.
constexpr std::chrono::seconds kRequestTimeout{2};

std::string StatusLine(int code) {
  switch (code) {
    case 200:
      return "HTTP/1.0 200 OK\r\n";
    case 404:
      return "HTTP/1.0 404 Not Found\r\n";
    default:
      return "HTTP/1.0 400 Bad Request\r\n";
  }
}

std::string MakeResponse(int code, const std::string& content_type,
                         const std::string& body) {
  std::string out = StatusLine(code);
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::AddEndpoint(const std::string& path,
                                    const std::string& content_type,
                                    Handler handler) {
  endpoints_[path] = Endpoint{content_type, std::move(handler)};
}

Status MetricsHttpServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("metrics server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("metrics server: cannot open socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    // The requested port can be transiently unbindable — most commonly a
    // predecessor incarnation's socket lingering in TIME_WAIT across a
    // replica restart (SO_REUSEADDR covers TIME_WAIT but not a listener
    // that has not fully closed yet, nor an unrelated squatter). Fall
    // back to an ephemeral port rather than failing the restart: the
    // caller reads the actual port from port() either way.
    if (port != 0) {
      SIREP_WLOG << "metrics server: cannot bind 127.0.0.1:" << port
                 << "; retrying on an ephemeral port";
      addr.sin_port = 0;
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        port = 0;
      }
    }
    if (port != 0) {
      ::close(fd);
      return Status::Internal("metrics server: cannot bind 127.0.0.1:" +
                              std::to_string(port));
    }
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::Internal("metrics server: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::Internal("metrics server: getsockname failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  NameThread(accept_thread_, "metrics-http");
  SIREP_DLOG << "metrics server listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Wake the accept loop out of poll/accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsHttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    gcs::net::ConfigureSocket(conn, std::chrono::milliseconds(2000));
    ServeConnection(conn);
    ::close(conn);
  }
}

void MetricsHttpServer::ServeConnection(int fd) {
  // Read until the end of the request line (or a bounded prefix of it —
  // only the request line matters here). The accept loop is serial, so a
  // client that never sends one is dropped after kRequestTimeout, or as
  // soon as Stop() begins: it must not block later scrapes or Stop().
  const auto deadline = std::chrono::steady_clock::now() + kRequestTimeout;
  std::string request;
  char chunk[2048];
  while (request.find("\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      // EAGAIN is the socket's receive timeout: the client is silent.
      const bool silent = n < 0 && (errno == EAGAIN ||
                                    errno == EWOULDBLOCK || errno == EINTR);
      if (!silent || !running_.load(std::memory_order_acquire) ||
          std::chrono::steady_clock::now() >= deadline) {
        return;
      }
      continue;
    }
    request.append(chunk, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string line = request.substr(0, line_end);
  // "GET <path> HTTP/1.x"
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.substr(0, sp1) != "GET") {
    gcs::net::WriteAll(fd, MakeResponse(400, "text/plain", "bad request\n"));
    return;
  }
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  auto it = endpoints_.find(path);
  if (it == endpoints_.end()) {
    gcs::net::WriteAll(fd, MakeResponse(404, "text/plain", "not found\n"));
    return;
  }
  gcs::net::WriteAll(
      fd, MakeResponse(200, it->second.content_type, it->second.handler()));
}

}  // namespace sirep::middleware
