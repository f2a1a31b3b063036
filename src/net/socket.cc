#include "src/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sdg::net {

namespace {

Status Errno(const char* what) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<Socket> Socket::Connect(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  // Frames are already batched; Nagle would only add latency on small acks.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<size_t> Socket::ReadSome(uint8_t* buf, size_t size) {
  for (;;) {
    ssize_t n = ::recv(fd_, buf, size, 0);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    return Errno("recv");
  }
}

Status Socket::WriteAll(const uint8_t* buf, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd_, buf + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Socket::SetNonBlocking(bool enable) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    return Errno("fcntl(F_GETFL)");
  }
  flags = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Result<size_t> Socket::TryRead(uint8_t* buf, size_t size) {
  for (;;) {
    ssize_t n = ::recv(fd_, buf, size, 0);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return kWouldBlock;
    }
    return Errno("recv");
  }
}

Result<size_t> Socket::TryWrite(const uint8_t* buf, size_t size) {
  for (;;) {
    ssize_t n = ::send(fd_, buf, size, MSG_NOSIGNAL);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return static_cast<size_t>(0);
    }
    return Errno("send");
  }
}

Result<size_t> Socket::TryWritev(const struct iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  for (;;) {
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return static_cast<size_t>(0);
    }
    return Errno("sendmsg");
  }
}

void Socket::SetRecvTimeout(int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errno("socket");
  }
  Listener l;
  l.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, 64) != 0) {
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Result<Socket> Listener::Accept() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    return AbortedError(std::string("accept: ") + std::strerror(errno));
  }
}

Status Listener::SetNonBlocking(bool enable) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    return Errno("fcntl(F_GETFL)");
  }
  flags = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Result<Socket> Listener::TryAccept() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // accept() does not inherit O_NONBLOCK: the socket is blocking, which
      // is what the synchronous first-frame read wants; a Connection flips
      // it.
      return Socket(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Socket();  // nothing pending; caller checks valid()
    }
    return AbortedError(std::string("accept: ") + std::strerror(errno));
  }
}

void Listener::Close() {
  if (fd_ >= 0) {
    // shutdown unblocks a concurrent Accept on Linux; close releases the port.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sdg::net
