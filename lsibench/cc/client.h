// Blocking keep-alive HTTP/1.1 client for the load generator: one
// object per connection, one request in flight at a time.

#ifndef LSIBENCH_CLIENT_H_
#define LSIBENCH_CLIENT_H_

#include <string>

namespace lsibench {

struct Reply {
  int status = 0;  // 0 when the exchange failed at the socket level.
  std::string body;
};

class Client {
 public:
  explicit Client(int port) : port_(port) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request on the kept-alive connection (reconnecting once
  /// if the server closed it) and reads the full response.
  Reply Call(const std::string& method, const std::string& path,
             const std::string& body);

 private:
  bool Connect();
  void Close();
  bool Exchange(const std::string& request, Reply* reply);

  int port_;
  int fd_ = -1;
  std::string buffer_;  // Bytes read past the previous response.
};

}  // namespace lsibench

#endif  // LSIBENCH_CLIENT_H_
