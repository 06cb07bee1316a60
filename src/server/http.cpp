#include "server/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace turbo::server {
namespace {

// Hard input limits: a request that exceeds these is rejected rather than
// buffered — the endpoint serves queries, not uploads.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Appends socket data to `buf` until `delim` appears or `max` bytes are
/// buffered. Returns Ok with the delimiter position in *pos; "connection
/// closed" if the peer hung up with an empty buffer (clean keep-alive end).
util::Status ReadUntil(int fd, const std::string& delim, size_t max, std::string* buf,
                       size_t* pos) {
  for (;;) {
    size_t p = buf->find(delim);
    if (p != std::string::npos) {
      *pos = p;
      return util::Status::Ok();
    }
    if (buf->size() > max) return util::Status::Error("input too large");
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0)
      return util::Status::Error(buf->empty() ? "connection closed"
                                              : "truncated input");
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::Error(std::string("recv: ") + std::strerror(errno));
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
}

/// Ensures `buf` holds at least `need` bytes.
util::Status ReadExact(int fd, size_t need, size_t max, std::string* buf) {
  while (buf->size() < need) {
    if (need > max) return util::Status::Error("input too large");
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return util::Status::Error("truncated input");
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::Error(std::string("recv: ") + std::strerror(errno));
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
  return util::Status::Ok();
}

/// Parses "Name: value" header lines out of head[start..end) into `headers`.
void ParseHeaderLines(const std::string& head, size_t start,
                      std::map<std::string, std::string>* headers) {
  size_t pos = start;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    size_t colon = head.find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      std::string name = ToLower(head.substr(pos, colon - pos));
      size_t v = colon + 1;
      while (v < eol && head[v] == ' ') ++v;
      (*headers)[name] = head.substr(v, eol - v);
    }
    pos = eol + 2;
  }
}

}  // namespace

const std::string& HttpRequest::param(const std::string& key) const {
  static const std::string kEmpty;
  auto it = params.find(key);
  return it == params.end() ? kEmpty : it->second;
}

const std::string& HttpRequest::header(const std::string& key) const {
  static const std::string kEmpty;
  auto it = headers.find(key);
  return it == headers.end() ? kEmpty : it->second;
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && std::isxdigit((unsigned char)s[i + 1]) &&
               std::isxdigit((unsigned char)s[i + 2])) {
      out += static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

void ParseFormParams(const std::string& s, std::map<std::string, std::string>* out) {
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t amp = s.find('&', pos);
    if (amp == std::string::npos) amp = s.size();
    size_t eq = s.find('=', pos);
    if (eq != std::string::npos && eq < amp)
      (*out)[UrlDecode(s.substr(pos, eq - pos))] = UrlDecode(s.substr(eq + 1, amp - eq - 1));
    else if (amp > pos)
      (*out)[UrlDecode(s.substr(pos, amp - pos))] = "";
    pos = amp + 1;
  }
}

util::Status ReadHttpRequest(int fd, HttpRequest* req, std::string* leftover) {
  *req = HttpRequest{};
  size_t head_end = 0;
  if (auto st = ReadUntil(fd, "\r\n\r\n", kMaxHeaderBytes, leftover, &head_end); !st.ok())
    return st;
  std::string head = leftover->substr(0, head_end);
  leftover->erase(0, head_end + 4);

  size_t line_end = head.find("\r\n");
  std::string request_line = head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1)
    return util::Status::Error("malformed request line");
  req->method = request_line.substr(0, sp1);
  req->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (line_end != std::string::npos)
    ParseHeaderLines(head, line_end + 2, &req->headers);

  size_t q = req->target.find('?');
  req->path = UrlDecode(req->target.substr(0, q));
  if (q != std::string::npos)
    ParseFormParams(req->target.substr(q + 1), &req->params);

  const std::string& cl = req->header("content-length");
  if (!cl.empty()) {
    char* end = nullptr;
    unsigned long long len = std::strtoull(cl.c_str(), &end, 10);
    if (end == cl.c_str() || *end != '\0' || len > kMaxBodyBytes)
      return util::Status::Error("bad content-length");
    if (auto st = ReadExact(fd, len, kMaxBodyBytes, leftover); !st.ok()) return st;
    req->body = leftover->substr(0, len);
    leftover->erase(0, len);
  }
  if (req->header("content-type").find("application/x-www-form-urlencoded") !=
      std::string::npos)
    ParseFormParams(req->body, &req->params);
  return util::Status::Ok();
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool HttpResponseWriter::Send(const char* data, size_t n) {
  iovec iov{const_cast<char*>(data), n};
  return SendV(&iov, 1);
}

bool HttpResponseWriter::WaitWritable() {
  int timeout_ms = -1;
  if (deadline_.time_since_epoch().count() != 0) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    timeout_ms = static_cast<int>(std::max(left, kLateWriteGrace).count());
  }
  pollfd p{fd_, POLLOUT, 0};
  for (;;) {
    int r = ::poll(&p, 1, timeout_ms);
    if (r >= 0) return r > 0;  // 0: the deadline passed with the socket still full
    if (errno != EINTR) return false;
  }
}

bool HttpResponseWriter::SendV(iovec* iov, size_t n) {
  if (failed_) return false;
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    // Never block inside sendmsg: a full socket waits in WaitWritable, which
    // bounds the wait by the deadline.
    ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && WaitWritable()) continue;
      // Peer gone (EPIPE/ECONNRESET), socket shut down, or a peer that
      // stopped reading outlasted the deadline.
      failed_ = true;
      return false;
    }
    // Drop the fully written entries, then trim the partly written one.
    size_t left = static_cast<size_t>(w);
    while (n > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

bool HttpResponseWriter::WriteSimple(int status, const std::string& content_type,
                                     const std::string& body,
                                     const std::map<std::string, std::string>& extra,
                                     bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + StatusReason(status) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: " + (keep_alive ? "keep-alive" : "close") + "\r\n";
  for (const auto& [k, v] : extra) head += k + ": " + v + "\r\n";
  head += "\r\n";
  return Send(head.data(), head.size()) && Send(body.data(), body.size());
}

void HttpResponseWriter::BeginChunked(int status, const std::string& content_type,
                                      const std::map<std::string, std::string>& extra,
                                      const std::string& trailer_names, bool keep_alive) {
  head_ = "HTTP/1.1 " + std::to_string(status) + " " + StatusReason(status) +
          "\r\nContent-Type: " + content_type +
          "\r\nTransfer-Encoding: chunked\r\nConnection: " +
          (keep_alive ? "keep-alive" : "close") + "\r\n";
  if (!trailer_names.empty()) head_ += "Trailer: " + trailer_names + "\r\n";
  for (const auto& [k, v] : extra) head_ += k + ": " + v + "\r\n";
  head_ += "\r\n";
}

bool HttpResponseWriter::Chunk(const std::string& data) {
  if (data.empty()) return !failed_;
  char size_line[32];
  int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
  iovec iov[4] = {{head_.data(), head_.size()},
                  {size_line, static_cast<size_t>(n)},
                  {const_cast<char*>(data.data()), data.size()},
                  {const_cast<char*>("\r\n"), 2}};
  bool ok = SendV(iov, 4);
  head_.clear();
  return ok;
}

bool HttpResponseWriter::EndChunked(const std::map<std::string, std::string>& trailers,
                                    const std::string& last) {
  char size_line[32] = {};
  int n = last.empty() ? 0 : std::snprintf(size_line, sizeof size_line, "%zx\r\n", last.size());
  std::string tail = last.empty() ? "0\r\n" : "\r\n0\r\n";
  for (const auto& [k, v] : trailers) tail += k + ": " + v + "\r\n";
  tail += "\r\n";
  iovec iov[4] = {{head_.data(), head_.size()},
                  {size_line, static_cast<size_t>(n)},
                  {const_cast<char*>(last.data()), last.size()},
                  {tail.data(), tail.size()}};
  bool ok = SendV(iov, 4);
  head_.clear();
  return ok;
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

int DialLocal(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

util::Status WriteHttpRequest(int fd, const std::string& method, const std::string& target,
                              const std::map<std::string, std::string>& headers,
                              const std::string& body) {
  std::string msg = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [k, v] : headers) msg += k + ": " + v + "\r\n";
  if (!body.empty() || method == "POST")
    msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  msg += "\r\n";
  msg += body;
  const char* data = msg.data();
  size_t n = msg.size();
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return util::Status::Error(std::string("send: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return util::Status::Ok();
}

bool WaitForResponseByte(int fd, std::string* leftover) {
  if (!leftover->empty()) return true;
  char c;
  for (;;) {
    ssize_t n = ::recv(fd, &c, 1, 0);
    if (n == 1) {
      leftover->push_back(c);
      return true;
    }
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

util::Status ReadHttpResponse(int fd, HttpResponse* resp, std::string* leftover) {
  *resp = HttpResponse{};
  size_t head_end = 0;
  if (auto st = ReadUntil(fd, "\r\n\r\n", kMaxHeaderBytes, leftover, &head_end); !st.ok())
    return st;
  std::string head = leftover->substr(0, head_end);
  leftover->erase(0, head_end + 4);

  size_t line_end = head.find("\r\n");
  std::string status_line = head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return util::Status::Error("malformed status line");
  resp->status = std::atoi(status_line.c_str() + sp + 1);
  if (line_end != std::string::npos)
    ParseHeaderLines(head, line_end + 2, &resp->headers);

  auto te = resp->headers.find("transfer-encoding");
  if (te != resp->headers.end() && te->second.find("chunked") != std::string::npos) {
    for (;;) {
      size_t eol = 0;
      if (auto st = ReadUntil(fd, "\r\n", kMaxHeaderBytes, leftover, &eol); !st.ok())
        return st;
      size_t chunk_len = std::strtoull(leftover->c_str(), nullptr, 16);
      leftover->erase(0, eol + 2);
      if (chunk_len == 0) break;
      if (auto st = ReadExact(fd, chunk_len + 2, kMaxBodyBytes + 2, leftover); !st.ok())
        return st;
      resp->body.append(*leftover, 0, chunk_len);
      leftover->erase(0, chunk_len + 2);  // chunk data + CRLF
    }
    // Trailer section: header lines until the blank line.
    size_t tend = 0;
    if (auto st = ReadUntil(fd, "\r\n", kMaxHeaderBytes, leftover, &tend); !st.ok())
      return st;
    while (tend != 0) {
      ParseHeaderLines(leftover->substr(0, tend + 2), 0, &resp->headers);
      leftover->erase(0, tend + 2);
      if (auto st = ReadUntil(fd, "\r\n", kMaxHeaderBytes, leftover, &tend); !st.ok())
        return st;
    }
    leftover->erase(0, 2);  // final blank line
    return util::Status::Ok();
  }

  auto cl = resp->headers.find("content-length");
  size_t len = cl == resp->headers.end() ? 0 : std::strtoull(cl->second.c_str(), nullptr, 10);
  if (auto st = ReadExact(fd, len, kMaxBodyBytes, leftover); !st.ok()) return st;
  resp->body = leftover->substr(0, len);
  leftover->erase(0, len);
  return util::Status::Ok();
}

util::Status HttpGet(uint16_t port, const std::string& target, HttpResponse* resp,
                     const std::map<std::string, std::string>& headers) {
  int fd = DialLocal(port);
  if (fd < 0) return util::Status::Error("connect failed");
  util::Status st = WriteHttpRequest(fd, "GET", target, headers);
  if (st.ok()) {
    std::string leftover;
    st = ReadHttpResponse(fd, resp, &leftover);
  }
  ::close(fd);
  return st;
}

}  // namespace turbo::server
