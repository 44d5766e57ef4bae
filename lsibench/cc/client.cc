#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace lsibench {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Client::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Close();
    return false;
  }
  return true;
}

Reply Client::Call(const std::string& method, const std::string& path,
                   const std::string& body) {
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  Reply reply;
  // A kept-alive connection the server closed while idle fails on first
  // use; one fresh connection retries it. A second failure is an error.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) continue;
    if (Exchange(request, &reply)) return reply;
    Close();
  }
  reply.status = 0;
  reply.body.clear();
  return reply;
}

bool Client::Exchange(const std::string& request, Reply* reply) {
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  char chunk[16384];
  std::size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  // Status line "HTTP/1.1 200 OK", then headers; the server always sends
  // Content-Length.
  const std::string head = buffer_.substr(0, head_end);
  const std::size_t space = head.find(' ');
  if (space == std::string::npos) return false;
  reply->status = std::atoi(head.c_str() + space + 1);
  std::size_t content_length = 0;
  bool close_after = false;
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string::npos) {
    line_start += 2;
    const std::size_t line_end = head.find("\r\n", line_start);
    std::string line = head.substr(line_start, line_end == std::string::npos
                                                   ? std::string::npos
                                                   : line_end - line_start);
    for (char& c : line) c = static_cast<char>(std::tolower(c));
    if (line.rfind("content-length:", 0) == 0) {
      content_length = std::strtoull(line.c_str() + 15, nullptr, 10);
    } else if (line.rfind("connection:", 0) == 0 &&
               line.find("close") != std::string::npos) {
      close_after = true;
    }
    line_start = line_end;
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  reply->body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  if (close_after) Close();
  return true;
}

}  // namespace lsibench
