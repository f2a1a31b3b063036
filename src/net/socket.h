// Minimal RAII wrappers over POSIX TCP sockets.
//
// Sockets start blocking (first-frame setup exchanges are simple synchronous
// exchanges, and blocking-socket users such as clients, migration sessions
// and the worker's control channel stay that way) and switch to
// non-blocking under a Connection, where a single epoll loop
// (event_loop.h) multiplexes every connection: TryRead/TryWrite surface
// would-block instead of parking a thread. All failures surface as Status —
// a dropped peer is an expected event the reconnect path handles, never a
// crash.
#ifndef SDG_NET_SOCKET_H_
#define SDG_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace sdg::net {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Dials host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  // Reads up to `size` bytes; returns 0 on orderly EOF. EINTR is retried.
  Result<size_t> ReadSome(uint8_t* buf, size_t size);

  // Writes all `size` bytes or returns the first error (EPIPE surfaces as a
  // Status, never a signal: sends use MSG_NOSIGNAL).
  Status WriteAll(const uint8_t* buf, size_t size);

  // Bounds how long ReadSome may block (0 restores indefinite blocking).
  // Used for setup exchanges so a silent peer cannot pin a thread.
  void SetRecvTimeout(int millis);

  // Switches O_NONBLOCK on or off (a Connection flips it on after the
  // blocking setup exchange).
  Status SetNonBlocking(bool enable);

  // Non-blocking read: bytes read, 0 on orderly EOF, or kWouldBlock when the
  // socket has no data right now. EINTR is retried.
  static constexpr size_t kWouldBlock = SIZE_MAX;
  Result<size_t> TryRead(uint8_t* buf, size_t size);

  // Non-blocking write: bytes accepted (possibly short), 0 when the kernel
  // buffer is full (would block). EINTR is retried; EPIPE surfaces as Status.
  Result<size_t> TryWrite(const uint8_t* buf, size_t size);

  // Scatter-gather variant of TryWrite: one sendmsg over `iovcnt` segments.
  // Same contract — bytes accepted (possibly short), 0 on would-block.
  Result<size_t> TryWritev(const struct iovec* iov, int iovcnt);

  // Wakes any thread blocked in ReadSome/WriteAll with EOF/EPIPE.
  void ShutdownBoth();

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  Listener& operator=(Listener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds 0.0.0.0:`port` with SO_REUSEADDR; port 0 picks an ephemeral port
  // (readable via port()).
  static Result<Listener> Bind(uint16_t port);

  // Blocks for the next connection; kAborted once Close() was called.
  Result<Socket> Accept();

  // Switches the listening fd to O_NONBLOCK so an event loop can drive it.
  Status SetNonBlocking(bool enable);

  // Non-blocking accept: a socket, or nullopt-like empty Socket() when no
  // connection is pending (EAGAIN). Errors (including a closed listener)
  // surface as Status. The accepted socket is blocking regardless of the
  // listener's mode.
  Result<Socket> TryAccept();

  // Unblocks Accept and releases the port. Idempotent.
  void Close();

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace sdg::net

#endif  // SDG_NET_SOCKET_H_
