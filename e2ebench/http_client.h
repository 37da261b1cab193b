#ifndef VALENTINE_E2EBENCH_HTTP_CLIENT_H_
#define VALENTINE_E2EBENCH_HTTP_CLIENT_H_

// A blocking HTTP/1.1 client that keeps one connection alive across
// requests, so each benchmark client is one closed-loop connection. It
// reads exactly Content-Length body bytes (the server always sends it)
// and reports any transport or framing failure as status 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

namespace e2ebench {

struct HttpReply {
  int status = 0;  // 0 = transport or framing failure
  std::string body;
};

class KeepAliveClient {
 public:
  explicit KeepAliveClient(uint16_t port) : port_(port) {}
  ~KeepAliveClient() { Close(); }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  // Sends one request and waits for its whole response. `trace` (if not
  // empty) goes out as the x-valentine-trace header, so the server's
  // access log can be joined to this client's timing.
  HttpReply Send(const std::string& method, const std::string& target,
                 const std::string& body, const std::string& trace = "") {
    HttpReply reply;
    if (fd_ < 0 && !Connect()) return reply;
    std::string wire = method + " " + target + " HTTP/1.1\r\nHost: bench\r\n";
    if (!trace.empty()) wire += "x-valentine-trace: " + trace + "\r\n";
    if (!body.empty() || method == "POST") {
      wire += "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n";
    wire += body;
    if (!SendAll(wire) || !ReadReply(&reply)) {
      Close();
      reply.status = 0;
    }
    return reply;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct timeval tv {};
    tv.tv_sec = 30;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool ReadReply(HttpReply* reply) {
    size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buf_.substr(0, header_end);
    // "HTTP/1.1 200 OK"
    if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return false;
    reply->status = std::atoi(head.c_str() + 9);
    size_t length = 0;
    bool closes = false;
    size_t line = head.find("\r\n");
    while (line != std::string::npos) {
      size_t next = head.find("\r\n", line + 2);
      std::string h = head.substr(line + 2, next == std::string::npos
                                                ? std::string::npos
                                                : next - line - 2);
      for (char& c : h) {
        if (c == ':') break;
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (h.compare(0, 15, "content-length:") == 0) {
        length = std::strtoul(h.c_str() + 15, nullptr, 10);
      } else if (h.compare(0, 11, "connection:") == 0 &&
                 h.find("close") != std::string::npos) {
        closes = true;
      }
      line = next;
    }
    const size_t total = header_end + 4 + length;
    while (buf_.size() < total) {
      if (!Fill()) return false;
    }
    reply->body = buf_.substr(header_end + 4, length);
    buf_.erase(0, total);
    if (closes) Close();
    return true;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

}  // namespace e2ebench

#endif  // VALENTINE_E2EBENCH_HTTP_CLIENT_H_
