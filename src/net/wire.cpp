#include "net/wire.hpp"

#include <cstring>

#include "serve/request.hpp"

namespace radix::net {

// --- WireWriter ------------------------------------------------------------

void WireWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  RADIX_REQUIRE(s.size() <= kMaxFrameBytes, "wire: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void WireWriter::floats(std::span<const float> v) {
  RADIX_REQUIRE(v.size() <= kMaxFrameBytes / sizeof(float),
                "wire: float payload too long");
  u32(static_cast<std::uint32_t>(v.size()));
  for (const float x : v) f32(x);
}

// --- WireReader ------------------------------------------------------------

std::span<const std::uint8_t> WireReader::need(std::size_t n) {
  if (remaining() < n) throw IoError("wire: truncated frame body");
  const auto view = in_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::uint8_t WireReader::u8() { return need(1)[0]; }

std::uint16_t WireReader::u16() {
  const auto b = need(2);
  return static_cast<std::uint16_t>(b[0] | (std::uint16_t(b[1]) << 8));
}

std::uint32_t WireReader::u32() {
  const auto b = need(4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t(b[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const auto b = need(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t(b[i]) << (8 * i);
  return v;
}

float WireReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  const auto b = need(n);
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::vector<float> WireReader::floats() {
  const std::uint32_t n = u32();
  // Bounds-check the whole payload before allocating: a corrupt count
  // must not reserve gigabytes.
  WireReader payload(need(std::size_t{n} * sizeof(float)));
  std::vector<float> out(n);
  for (float& x : out) x = payload.f32();
  return out;
}

void WireReader::expect_end() const {
  if (pos_ != in_.size()) throw IoError("wire: trailing bytes in frame body");
}

// --- Frame assembly --------------------------------------------------------

std::vector<std::uint8_t> encode_frame(MsgType type, std::uint64_t correlation,
                                       std::span<const std::uint8_t> body) {
  // length counts type + correlation + body.
  const std::uint64_t length = 1 + 8 + body.size();
  RADIX_REQUIRE(length <= kMaxFrameBytes, "wire: frame exceeds kMaxFrameBytes");
  std::vector<std::uint8_t> out;
  out.reserve(4 + length);
  WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(length));
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(correlation);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<Frame> try_parse_frame(std::vector<std::uint8_t>& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    length |= std::uint32_t(buffer[i]) << (8 * i);
  }
  if (length < 1 + 8 || length > kMaxFrameBytes) {
    throw IoError("wire: corrupt frame length");
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(buffer[4]);
  std::uint64_t corr = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    corr |= std::uint64_t(buffer[5 + i]) << (8 * i);
  }
  f.correlation = corr;
  f.body.assign(buffer.begin() + 4 + 1 + 8, buffer.begin() + 4 + length);
  buffer.erase(buffer.begin(), buffer.begin() + 4 + length);
  return f;
}

// --- Serving-type codecs ---------------------------------------------------

void encode_histogram(WireWriter& w, const serve::Log2Histogram& h) {
  w.f64(h.base());
  w.u64(h.count());
  w.f64(h.sum());
  w.f64(h.max());
  w.u32(static_cast<std::uint32_t>(serve::Log2Histogram::kBuckets));
  for (const std::uint64_t c : h.raw_counts()) w.u64(c);
}

serve::Log2Histogram decode_histogram(WireReader& r) {
  const double base = r.f64();
  const std::uint64_t count = r.u64();
  const double sum = r.f64();
  const double max = r.f64();
  const std::uint32_t buckets = r.u32();
  // A peer with a different grid cannot merge exactly; refuse rather
  // than silently re-bucket.
  if (buckets != static_cast<std::uint32_t>(serve::Log2Histogram::kBuckets)) {
    throw IoError("wire: histogram bucket-grid mismatch");
  }
  std::array<std::uint64_t, serve::Log2Histogram::kBuckets> counts{};
  for (auto& c : counts) c = r.u64();
  return serve::Log2Histogram::from_raw(base, counts, count, sum, max);
}

void encode_stats(WireWriter& w, const serve::ServeStats& s) {
  w.u64(s.requests);
  w.u64(s.rows);
  w.u64(s.batches);
  w.u64(s.edges);
  w.u64(s.errors);
  w.u64(s.shed);
  w.u64(s.expired);
  w.f64(s.busy_seconds);
  encode_histogram(w, s.batch_rows_hist);
  encode_histogram(w, s.queue_wait_hist);
  encode_histogram(w, s.e2e_hist);
}

serve::ServeStats decode_stats(WireReader& r) {
  serve::ServeStats s;
  s.requests = r.u64();
  s.rows = r.u64();
  s.batches = r.u64();
  s.edges = r.u64();
  s.errors = r.u64();
  s.shed = r.u64();
  s.expired = r.u64();
  s.busy_seconds = r.f64();
  s.batch_rows_hist = decode_histogram(r);
  s.queue_wait_hist = decode_histogram(r);
  s.e2e_hist = decode_histogram(r);
  s.finalize();
  return s;
}

void encode_model_info(WireWriter& w, const WireModelInfo& m) {
  w.u64(m.id);
  w.str(m.name);
  w.u32(m.input_width);
  w.u32(m.output_width);
  w.u8(static_cast<std::uint8_t>(m.priority));
  w.u8(m.retired ? 1 : 0);
  w.u32(m.version);
  w.u64(m.pending);
}

WireModelInfo decode_model_info(WireReader& r) {
  WireModelInfo m;
  m.id = r.u64();
  m.name = r.str();
  m.input_width = r.u32();
  m.output_width = r.u32();
  const std::uint8_t p = r.u8();
  if (p >= serve::kNumPriorities) throw IoError("wire: bad priority value");
  m.priority = static_cast<serve::Priority>(p);
  m.retired = r.u8() != 0;
  m.version = r.u32();
  m.pending = r.u64();
  return m;
}

WireError classify_error(std::exception_ptr error) {
  WireError e;
  if (!error) return e;
  try {
    std::rethrow_exception(error);
  } catch (const serve::AbortedError& ex) {
    e.kind = WireErrorKind::kAborted;
    e.message = ex.what();
  } catch (const serve::DeadlineExceededError& ex) {
    e.kind = WireErrorKind::kDeadline;
    e.message = ex.what();
  } catch (const std::exception& ex) {
    e.kind = WireErrorKind::kGeneric;
    e.message = ex.what();
  } catch (...) {
    e.kind = WireErrorKind::kGeneric;
    e.message = "unknown serving error";
  }
  return e;
}

void throw_wire_error(const WireError& e) {
  switch (e.kind) {
    case WireErrorKind::kAborted: throw serve::AbortedError(e.message);
    case WireErrorKind::kDeadline: throw serve::DeadlineExceededError(e.message);
    case WireErrorKind::kNone:
    case WireErrorKind::kGeneric: break;
  }
  throw Error(e.message);
}

}  // namespace radix::net
