// Zero-dependency HTTP/1.1 plumbing for the SPARQL endpoint: a blocking
// request parser and a chunked-capable response writer over raw POSIX
// sockets, plus the matching client side (used by the server tests and the
// load driver — the server itself never dials out).
//
// Scope is deliberately the protocol subset the SPARQL protocol needs:
// request line + headers + Content-Length bodies in, fixed or chunked
// transfer encoding (with trailers) out, keep-alive by default. No TLS, no
// HTTP/2, no request pipelining.
#pragma once

#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "util/status.hpp"

namespace turbo::server {

/// One parsed request. Header names are lower-cased; query-string and
/// form-urlencoded parameters are percent-decoded into `params`.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string target;  ///< raw request target, e.g. "/sparql?query=..."
  std::string path;    ///< target up to '?', percent-decoded
  std::map<std::string, std::string> params;   ///< decoded query parameters
  std::map<std::string, std::string> headers;  ///< lower-cased field names
  std::string body;

  /// Convenience: parameter value or empty string.
  const std::string& param(const std::string& key) const;
  /// Convenience: header value (lower-cased name) or empty string.
  const std::string& header(const std::string& key) const;
};

/// Percent-decodes `s` ('+' becomes space, as in form encoding).
std::string UrlDecode(const std::string& s);
/// Parses "a=1&b=x%20y" pairs into `out` (percent-decoded).
void ParseFormParams(const std::string& s, std::map<std::string, std::string>* out);

/// Reads one request from `fd`, blocking. `leftover` carries bytes read past
/// the previous request on a keep-alive connection; pass the same string for
/// every request on one connection. Returns an error on malformed input,
/// oversized input, or a closed/broken socket (message "connection closed"
/// when the peer hung up cleanly between requests, "read timed out" when a
/// socket with SO_RCVTIMEO waited past it). That timeout bounds the whole
/// request, not just each recv: a request still incomplete once it has
/// passed since the call began fails the same way.
util::Status ReadHttpRequest(int fd, HttpRequest* req, std::string* leftover);

/// Response writer over one socket. Either use WriteSimple (fixed-length,
/// one shot) or the streaming sequence BeginChunked → Chunk... → EndChunked.
/// Every write reports failure (peer gone, or a deadline passed while the
/// peer was not reading) so callers can abandon work; once a write fails the
/// writer stays failed.
class HttpResponseWriter {
 public:
  explicit HttpResponseWriter(int fd) : fd_(fd) {}

  /// Bounds how long a write waits for a peer that has stopped reading: a
  /// full socket is waited on until `deadline`, but never for less than
  /// kLateWriteGrace (so a reader that keeps up still gets the end of a
  /// response the deadline cut short); then the write fails. The epoch
  /// default waits as long as the peer stays connected.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  static constexpr std::chrono::milliseconds kLateWriteGrace{100};

  /// Complete fixed-length response (status line, headers, body) in one
  /// sendmsg.
  bool WriteSimple(int status, const std::string& content_type,
                   const std::string& body,
                   const std::map<std::string, std::string>& extra_headers = {},
                   bool keep_alive = true);

  /// Starts a chunked response. `trailer_names` (comma-separated) announces
  /// trailers EndChunked will send. The status line and headers are held
  /// back and leave in the same sendmsg as the first chunk (or the end).
  void BeginChunked(int status, const std::string& content_type,
                    const std::map<std::string, std::string>& extra_headers = {},
                    const std::string& trailer_names = {}, bool keep_alive = true);
  /// Sends one chunk — size line, payload and CRLF in one sendmsg, resumed
  /// after partial writes; empty data is a no-op (an empty chunk would
  /// terminate the stream mid-flight).
  bool Chunk(const std::string& data);
  /// Sends `last` as a final chunk (none when empty), then the terminating
  /// chunk and any trailers, all in one sendmsg.
  bool EndChunked(const std::map<std::string, std::string>& trailers = {},
                  const std::string& last = {});

  bool failed() const { return failed_; }

 private:
  /// Writes every byte of `iov[0..n)`, advancing the vector past partial
  /// writes (the entries are consumed).
  bool SendV(iovec* iov, size_t n);
  /// Waits for socket space under the deadline rule; false on expiry.
  bool WaitWritable();

  int fd_;
  std::string head_;  ///< a chunked response's held-back status + headers
  std::chrono::steady_clock::time_point deadline_{};
  bool failed_ = false;
};

/// Standard reason phrase for the handful of status codes the server emits.
const char* StatusReason(int status);

// ---------------------------------------------------------------------------
// Client side (tests and the load driver).
// ---------------------------------------------------------------------------

/// One parsed response; chunked bodies arrive decoded, trailers merged into
/// `headers`.
struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lower-cased field names
  std::string body;
};

/// Connects to 127.0.0.1:`port`; returns the fd or -1.
int DialLocal(uint16_t port);

/// Writes one request. Adds Host and Content-Length.
util::Status WriteHttpRequest(int fd, const std::string& method,
                              const std::string& target,
                              const std::map<std::string, std::string>& headers = {},
                              const std::string& body = {});

/// Reads one response, decoding chunked transfer encoding. `leftover` plays
/// the same keep-alive role as in ReadHttpRequest.
util::Status ReadHttpResponse(int fd, HttpResponse* resp, std::string* leftover);

/// Blocks until at least one response byte is readable (time-to-first-byte
/// measurement hook: call after WriteHttpRequest, before ReadHttpResponse).
/// Returns false if the connection closed first.
bool WaitForResponseByte(int fd, std::string* leftover);

/// Convenience: dial, send one request, read one response, close.
util::Status HttpGet(uint16_t port, const std::string& target, HttpResponse* resp,
                     const std::map<std::string, std::string>& headers = {});

}  // namespace turbo::server
