#include "loadgen.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/client_protocol.hpp"

namespace perfbench {

using ccpr::server::ClientOp;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Pipe::Pipe(const std::vector<std::uint16_t>& ports) {
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) {
    ok_ = false;
    return;
  }
  conns_.resize(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    ccpr::net::Socket s;
    // The servers are started by this process; give a slow boot a moment.
    for (int attempt = 0; attempt < 200 && !s.valid(); ++attempt) {
      s = ccpr::net::tcp_dial("127.0.0.1", ports[i]);
      if (!s.valid()) ::usleep(10'000);
    }
    if (!s.valid() || !ccpr::net::set_nonblocking(s.fd())) {
      ok_ = false;
      return;
    }
    conns_[i].fd = s.release();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_[i].fd, &ev) != 0) ok_ = false;
  }
}

Pipe::~Pipe() {
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (ep_ >= 0) ::close(ep_);
}

void Pipe::send(std::size_t conn, const std::vector<std::uint8_t>& body,
                const Tag& tag) {
  Conn& c = conns_[conn];
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    c.wbuf.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  c.wbuf.insert(c.wbuf.end(), body.begin(), body.end());
  c.fifo.push_back(tag);
  ++outstanding_;
}

void Pipe::flush() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN: wait for EPOLLOUT; errors surface on read
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    } else if (c.woff > (1u << 20)) {
      c.wbuf.erase(c.wbuf.begin(),
                   c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.woff));
      c.woff = 0;
    }
    update_interest(i);
  }
}

void Pipe::update_interest(std::size_t idx) {
  Conn& c = conns_[idx];
  const bool want = c.woff < c.wbuf.size();
  if (want == c.want_write) return;
  c.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = idx;
  ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

bool Pipe::poll(std::uint64_t timeout_ns) {
  epoll_event evs[8];
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ULL);
  const int n = ::epoll_pwait2(ep_, evs, 8, &ts, nullptr);
  if (n < 0) return errno == EINTR;
  bool healthy = true;
  for (int i = 0; i < n; ++i) {
    const std::size_t idx = evs[i].data.u64;
    if ((evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      healthy = drain_reads(idx) && healthy;
    }
  }
  flush();
  return healthy;
}

bool Pipe::drain_reads(std::size_t idx) {
  Conn& c = conns_[idx];
  bool open = true;
  while (true) {
    const std::size_t old = c.rbuf.size();
    c.rbuf.resize(old + 65536);
    const ssize_t n = ::recv(c.fd, c.rbuf.data() + old, 65536, 0);
    if (n > 0) {
      c.rbuf.resize(old + static_cast<std::size_t>(n));
      if (n < 65536) break;
      continue;
    }
    c.rbuf.resize(old);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) open = false;
    break;
  }
  const std::uint64_t t_recv = now_ns();
  while (c.rbuf.size() - c.rpos >= ccpr::net::kFrameLenBytes) {
    const std::uint8_t* p = c.rbuf.data() + c.rpos;
    std::uint32_t len = 0;
    std::memcpy(&len, p, 4);  // little-endian host, as the frame format
    if (c.rbuf.size() - c.rpos - 4 < len) break;
    if (c.fifo.empty()) return false;  // response nobody asked for
    const Tag tag = c.fifo.front();
    c.fifo.pop_front();
    --outstanding_;
    ccpr::net::Decoder body(p + 4, len);
    c.rpos += 4 + len;
    if (on_response_) on_response_(idx, tag, body, t_recv);
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos > (1u << 20)) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
    c.rpos = 0;
  }
  return open;
}

std::vector<std::uint8_t> put_request(std::uint32_t key,
                                      const std::string& value) {
  ccpr::net::Encoder enc(value.size() + 8);
  enc.u8(static_cast<std::uint8_t>(ClientOp::kPut));
  enc.varint(key);
  enc.bytes(value);
  return enc.take();
}

std::vector<std::uint8_t> get_request(std::uint32_t key) {
  ccpr::net::Encoder enc(8);
  enc.u8(static_cast<std::uint8_t>(ClientOp::kGet));
  enc.varint(key);
  return enc.take();
}

std::vector<std::uint8_t> token_request(std::uint32_t target) {
  ccpr::net::Encoder enc(4);
  enc.u8(static_cast<std::uint8_t>(ClientOp::kToken));
  enc.varint(target);
  return enc.take();
}

std::vector<std::uint8_t> covered_request(const std::string& token,
                                          std::uint64_t wait_us) {
  ccpr::net::Encoder enc(token.size() + 12);
  enc.u8(static_cast<std::uint8_t>(ClientOp::kCovered));
  enc.bytes(token);
  enc.varint(wait_us);
  return enc.take();
}

std::vector<std::uint8_t> engine_stat_request() {
  ccpr::net::Encoder enc(1);
  enc.u8(static_cast<std::uint8_t>(ClientOp::kEngineStat));
  return enc.take();
}

}  // namespace perfbench
