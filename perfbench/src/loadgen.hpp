// Single-threaded pipelined client for the framed client protocol
// (server/client_protocol.hpp), plus the open-loop phase runner built on it.
//
// One epoll loop owns every connection. Requests are framed into a per-
// connection write buffer and their tags pushed onto a per-connection FIFO;
// the server answers each connection strictly in request order, so
// responses are matched to tags positionally.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace perfbench {

std::uint64_t now_ns();

/// What a response answers; carried through the connection FIFO.
struct Tag {
  enum Kind : std::uint8_t {
    kPut,
    kGet,
    kToken,
    kCovered,
    kEngineStat,
    kEcho,
  };
  Kind kind = kPut;
  std::uint32_t key = 0;
  std::uint8_t site = 0;
  std::uint64_t due_ns = 0;  ///< absolute intended send time
  /// Load ops: when it was sent; visibility probes: the put's ack time.
  std::uint64_t ref_ns = 0;
  std::uint64_t counter = 0;  ///< puts: the write counter in the value
  bool check = false;  ///< preload or after-drain check, not load
};

class Pipe {
 public:
  using OnResponse = std::function<void(std::size_t conn, const Tag& tag,
                                        ccpr::net::Decoder& body,
                                        std::uint64_t recv_ns)>;

  /// Connects one socket per port (blocking connect, then non-blocking).
  /// ok() is false if any connection failed.
  explicit Pipe(const std::vector<std::uint16_t>& ports);
  ~Pipe();
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  bool ok() const { return ok_; }
  void set_handler(OnResponse fn) { on_response_ = std::move(fn); }

  /// Queue one request body (unframed) on `conn`; written on the next
  /// flush() or poll().
  void send(std::size_t conn, const std::vector<std::uint8_t>& body,
            const Tag& tag);
  /// Write as much buffered data as the sockets accept.
  void flush();
  /// Wait up to `timeout_ns` for readable data and dispatch every complete
  /// response. Returns false on a broken connection.
  bool poll(std::uint64_t timeout_ns);

  std::size_t outstanding() const { return outstanding_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;
    std::deque<Tag> fifo;
    bool want_write = false;
  };
  bool drain_reads(std::size_t idx);
  void update_interest(std::size_t idx);

  std::vector<Conn> conns_;
  int ep_ = -1;
  bool ok_ = true;
  std::size_t outstanding_ = 0;
  OnResponse on_response_;
};

// ---- request encoders (client_protocol.hpp formats) ----
std::vector<std::uint8_t> put_request(std::uint32_t key,
                                      const std::string& value);
std::vector<std::uint8_t> get_request(std::uint32_t key);
std::vector<std::uint8_t> token_request(std::uint32_t target);
std::vector<std::uint8_t> covered_request(const std::string& token,
                                          std::uint64_t wait_us);
std::vector<std::uint8_t> engine_stat_request();

}  // namespace perfbench
