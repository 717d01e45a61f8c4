#include "obs/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hybridjoin {
namespace obs {

namespace {
constexpr int kPollSliceMs = 100;
constexpr size_t kMaxRequestBytes = 8192;
}  // namespace

MetricsHttpServer::MetricsHttpServer(uint16_t port, Handler handler)
    : requested_port_(port), handler_(std::move(handler)) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start() {
  if (thread_.joinable()) return Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("metrics http: socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(requested_port_);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("metrics http: bind 127.0.0.1:" +
                           std::to_string(requested_port_) + ": " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("metrics http: listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ListenLoop(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  bound_port_ = 0;
}

void MetricsHttpServer::ListenLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready <= 0) continue;  // timeout slice or transient error
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    // Read until the end of the request head (we ignore any body); bound
    // the total read so a misbehaving client cannot grow the buffer.
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < kMaxRequestBytes) {
      pollfd cfd{};
      cfd.fd = client;
      cfd.events = POLLIN;
      if (::poll(&cfd, 1, kPollSliceMs) <= 0) break;
      const ssize_t n = ::read(client, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }

    // Request line: "GET /path HTTP/1.1".
    std::string method, path;
    const size_t sp1 = request.find(' ');
    if (sp1 != std::string::npos) {
      method = request.substr(0, sp1);
      const size_t sp2 = request.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        path = request.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }

    std::string body;
    std::string response;
    if (method == "GET" && handler_ && handler_(path, &body)) {
      response = "HTTP/1.1 200 OK\r\n"
                 "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                 "Content-Length: " +
                 std::to_string(body.size()) +
                 "\r\n"
                 "Connection: close\r\n\r\n" +
                 body;
    } else {
      body = "not found\n";
      response = "HTTP/1.1 404 Not Found\r\n"
                 "Content-Type: text/plain\r\n"
                 "Content-Length: " +
                 std::to_string(body.size()) +
                 "\r\n"
                 "Connection: close\r\n\r\n" +
                 body;
    }
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::write(client, response.data() + sent, response.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    // Count before closing: the client reads until EOF, and may read the
    // counter as soon as it sees it.
    requests_.fetch_add(1, std::memory_order_relaxed);
    ::close(client);
  }
}

}  // namespace obs
}  // namespace hybridjoin
