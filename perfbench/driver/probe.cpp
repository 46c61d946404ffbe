#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Value of a "Key:   123 kB" line of a /proc status file, or 0.
std::uint64_t status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  const std::string dir =
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid));
  ProcSample s;
  {
    std::ifstream in(dir + "/stat");
    std::string stat;
    if (!std::getline(in, stat)) {
      throw std::runtime_error("cannot read " + dir + "/stat");
    }
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
      if (i == 12 || i == 13) ticks += std::stod(field);
    }
    s.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  s.rss_mb = static_cast<double>(status_field(dir + "/status", "VmRSS")) / 1024.0;
  s.hwm_mb = static_cast<double>(status_field(dir + "/status", "VmHWM")) / 1024.0;
  // Context switches are per thread; the process status shows only the
  // leader's, so sum over /proc/<pid>/task/*.
  if (DIR* d = opendir((dir + "/task").c_str())) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      s.invol_switches += status_field(
          dir + "/task/" + e->d_name + "/status", "nonvoluntary_ctxt_switches");
    }
    closedir(d);
  }
  return s;
}

long SpanLog::record(const char* name, double start, double end,
                     std::uint64_t request, long parent) {
  if (!enabled_) return -1;
  std::scoped_lock lock(mutex_);
  spans_.push_back({name, start, end, request, parent});
  return static_cast<long>(spans_.size()) - 1;
}

void SpanLog::finish(long index, double end) {
  if (index < 0) return;
  std::scoped_lock lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::string SpanLog::to_json() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (const Span& s : spans_) {
    items.push_back(json_list({json_string(s.name), json_number(s.start),
                               json_number(s.end), std::to_string(s.request),
                               std::to_string(s.parent)}));
  }
  return json_list(items);
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out(1, '[');
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  out += ']';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out(1, '"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_string(k);
  body_ += ':';
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::nums(const std::string& k,
                             const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (const double x : v) items.push_back(json_number(x));
  return raw(k, json_list(items));
}

}  // namespace perfbench
