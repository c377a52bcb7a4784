// Readable progress output for concurrent worlds.
//
// Two tools for two shapes of output:
//
//  * LineSink — a process-wide, mutex-guarded line printer. Each call emits
//    exactly one line, optionally prefixed with the world id ("[w07] …"),
//    so progress from concurrent worlds never interleaves mid-line. Tags
//    are off by default; parallel drivers turn them on for the duration of
//    a sweep (`--jobs 1` output stays byte-identical to the pre-parallel
//    binaries).
//
//  * OrderedEmitter — a reorder buffer for result lines whose *order*
//    matters (fuzz verdicts, smoke matrices). Worlds append text under
//    their index; a world's text is released to the stream only once every
//    lower-indexed world has completed, so a parallel sweep's stdout is
//    byte-identical to the sequential run's.
#pragma once

#include <cstddef>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace moonshot::exec {

class LineSink {
 public:
  static LineSink& instance();

  /// Enables "[wNN] " prefixes on tagged lines. Returns the previous value
  /// so a driver can restore it after its sweep.
  bool set_tagged(bool on);

  /// One atomic line to stderr, prefixed with the world id when tagging is
  /// on. `fmt` should include the trailing newline, like the fprintf calls
  /// it replaces.
  void line(std::size_t world, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

 private:
  std::mutex mu_;
  bool tagged_ = false;  // guarded by mu_
};

/// printf-append onto a std::string (for OrderedEmitter buffers).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

class OrderedEmitter {
 public:
  /// `count` worlds, releasing to `to` (typically stdout).
  OrderedEmitter(std::size_t count, std::FILE* to);
  /// Flushes any stragglers (normally a no-op: every world completed).
  ~OrderedEmitter();

  /// Appends text under world i's buffer (thread-safe).
  void append(std::size_t i, std::string text);
  /// Marks world i complete and releases the ready prefix in index order.
  void complete(std::size_t i);

 private:
  std::mutex mu_;
  std::FILE* to_;
  std::vector<std::string> buf_;
  std::vector<char> done_;
  std::size_t next_ = 0;  // lowest index not yet released
};

}  // namespace moonshot::exec
