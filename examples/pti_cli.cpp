// pti_cli: command-line front end for the library.
//
//   pti_cli build         <string.pus> <index.pti> [tau_min]   substring index
//                         [--compact] [--format=V] FM-index locator, smaller
//   pti_cli build-special <string.pus> <index.pti>             §4 special index
//   pti_cli build-approx  <string.pus> <index.pti> [tau_min [epsilon]]
//   pti_cli build-listing <index.pti> <tau_min> <doc.pus>...   §6 listing index
//   pti_cli build-sharded <string.pus> <index.pti> [tau_min]   sharded engine
//                         [--shards=K] [--overlap=N] [--threads=T] [--compact]
//                         [--format=V]
//   pti_cli query <index.pti> <pattern> <tau> [--mmap]
//                                                threshold query (any kind;
//                                                the kind is read from the file)
//   pti_cli fuzzy <index.pti> <pattern> <tau> [--k=N] [--mode=mismatch|edit]
//                 [--mmap]                       approximate threshold query
//                                                (substring or sharded index):
//                                                positions where some variant
//                                                within k errors clears tau
//   pti_cli batch <index.pti> <patterns.txt> <tau> [--threads=T] [--mmap]
//                                                batched queries (substring or
//                                                sharded index); the file has
//                                                one pattern per line with an
//                                                optional per-line tau
//   pti_cli serve <index.pti> <patterns.txt|-> <tau> [--clients=N]
//                 [--batch-max=N] [--linger-us=N] [--cache-mb=N] [--threads=T]
//                 [--mmap]                       async serving engine: N client
//                                                threads submit the workload
//                                                concurrently; results print in
//                                                input order, engine stats go
//                                                to stderr; "-" reads stdin.
//                                                A "!reload <index.pti>" line
//                                                in the workload hot-swaps the
//                                                served index between segments
//   pti_cli serve <index.pti> --listen=<port> [--batch-max=N] [--linger-us=N]
//                 [--cache-mb=N] [--threads=T] [--max-pending=N] [--mmap]
//                                                serve over TCP instead of a
//                                                local workload: binds
//                                                127.0.0.1:<port> (0 picks an
//                                                ephemeral port), prints the
//                                                bound port on stdout, serves
//                                                pti_client traffic until
//                                                stdin closes, then drains and
//                                                prints stats to stderr
//   pti_cli topk  <index.pti> <pattern> <tau> <k> [--mmap]
//                                                k best occurrences (substring)
//   pti_cli stat  <index.pti> [--mmap]           index statistics (any kind)
//   pti_cli gen   <n> <theta> <seed> <out.pus>   §8.1 synthetic data
//
// .pus files use the text format of core/usformat.h (one position per line,
// char=prob pairs, optional @corr directives). .pti files use the versioned
// container format of core/serde.h; every index kind round-trips through
// save (build*) and load (query/batch/topk/stat). Builds write version 3
// (the aligned zero-copy layout) unless pinned with --format=2 to the
// portable interchange format; --mmap maps the index file instead of
// reading it, so v3 loads share the page cache and skip the heap copy.
// Index files are written to <path>.tmp and renamed into place, so a crash
// or full disk never leaves a half-written index under the final name.
// Every build* subcommand rejects a .pus input with no positions
// (InvalidArgument, exit 1, no file written).
//
// Exit codes: 0 on success, 1 on an operational failure (I/O, corrupt index,
// failed build or query), 2 on a usage error (unknown command, missing or
// malformed arguments). Errors and diagnostics go to stderr; stdout carries
// only the machine-readable results.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/approx_index.h"
#include "core/listing_index.h"
#include "core/serde.h"
#include "core/special_index.h"
#include "core/substring_index.h"
#include "core/usformat.h"
#include "datagen/datagen.h"
#include "engine/serving_engine.h"
#include "engine/sharded_index.h"
#include "net/server.h"

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pti_cli build         <string.pus> <index.pti> [tau_min] [--compact]\n"
               "                        [--format=2|3] [--threads=T] [--timings]\n"
               "  pti_cli build-special <string.pus> <index.pti>\n"
               "  pti_cli build-approx  <string.pus> <index.pti> [tau_min [epsilon]]\n"
               "  pti_cli build-listing <index.pti> <tau_min> <doc.pus>...\n"
               "  pti_cli build-sharded <string.pus> <index.pti> [tau_min]\n"
               "                        [--shards=K] [--overlap=N] [--threads=T] [--compact]\n"
               "                        [--format=2|3] [--timings]\n"
               "  pti_cli query <index.pti> <pattern> <tau> [--mmap]\n"
               "  pti_cli fuzzy <index.pti> <pattern> <tau> [--k=N] "
               "[--mode=mismatch|edit]\n"
               "                [--mmap]\n"
               "  pti_cli batch <index.pti> <patterns.txt> <tau> [--threads=T] [--mmap]\n"
               "  pti_cli serve <index.pti> <patterns.txt|-> <tau> [--clients=N]\n"
               "                [--batch-max=N] [--linger-us=N] [--cache-mb=N]\n"
               "                [--threads=T] [--mmap]\n"
               "  pti_cli serve <index.pti> --listen=<port> [--batch-max=N]\n"
               "                [--linger-us=N] [--cache-mb=N] [--threads=T]\n"
               "                [--max-pending=N] [--mmap]\n"
               "  pti_cli topk  <index.pti> <pattern> <tau> <k> [--mmap]\n"
               "  pti_cli stat  <index.pti> [--mmap]\n"
               "  pti_cli gen   <n> <theta> <seed> <out.pus>\n");
  return 2;
}

/// Usage-class error: names the problem, prints the usage text, exits 2.
int UsageError(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  return Usage();
}

// Strict numeric parsing: the whole token must be consumed (atof-style
// silent zeroes turned "0.x5" typos into tau=0 queries).
bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool ParseInt64(const char* s, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

/// Splits argv[2..) into positional arguments and the --flag=value options
/// the calling command supports. Unknown flags — including real flags a
/// command does not consume — are a usage error (reported by the caller via
/// the false return), so a silently ignored option can never masquerade as
/// having taken effect.
struct Flags {
  int64_t shards = 0;
  int64_t overlap = 0;
  int64_t threads = 0;
  bool threads_set = false;
  bool compact = false;
  // serve defaults; see ServingOptions for the engine-side semantics.
  int64_t clients = 4;
  int64_t batch_max = 64;
  int64_t linger_us = 200;
  int64_t cache_mb = 16;
  // serve --listen: TCP port (0 = ephemeral); set iff the flag was given.
  int64_t listen = 0;
  bool listen_set = false;
  // bound per admission lane before load shedding; see ServingOptions.
  int64_t max_pending = 65536;
  // fuzzy defaults; see core/fuzzy.h.
  int64_t k = 1;
  std::string mode = "mismatch";
  // container version for build commands; see core/serde.h.
  int64_t format = pti::serde::kContainerVersion;
  // read-side: mmap the index file instead of copying it into memory.
  bool mmap = false;
  // build-side: print the per-stage construction breakdown to stderr.
  bool timings = false;
};

constexpr unsigned kFlagShards = 1u << 0;
constexpr unsigned kFlagOverlap = 1u << 1;
constexpr unsigned kFlagThreads = 1u << 2;
constexpr unsigned kFlagCompact = 1u << 3;
constexpr unsigned kFlagClients = 1u << 4;
constexpr unsigned kFlagBatchMax = 1u << 5;
constexpr unsigned kFlagLingerUs = 1u << 6;
constexpr unsigned kFlagCacheMb = 1u << 7;
constexpr unsigned kFlagK = 1u << 8;
constexpr unsigned kFlagMode = 1u << 9;
constexpr unsigned kFlagFormat = 1u << 10;
constexpr unsigned kFlagMmap = 1u << 11;
constexpr unsigned kFlagTimings = 1u << 12;
constexpr unsigned kFlagListen = 1u << 13;
constexpr unsigned kFlagMaxPending = 1u << 14;

bool SplitArgs(int argc, char** argv, unsigned allowed,
               std::vector<const char*>* positional, Flags* flags,
               std::string* bad) {
  for (int a = 2; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional->push_back(arg);
      continue;
    }
    int64_t* target = nullptr;
    const char* value = nullptr;
    unsigned flag = 0;
    if (std::strcmp(arg, "--compact") == 0) {
      if ((allowed & kFlagCompact) == 0) {
        *bad = std::string("flag not supported by this command: ") + arg;
        return false;
      }
      flags->compact = true;
      continue;
    }
    if (std::strcmp(arg, "--mmap") == 0) {
      if ((allowed & kFlagMmap) == 0) {
        *bad = std::string("flag not supported by this command: ") + arg;
        return false;
      }
      flags->mmap = true;
      continue;
    }
    if (std::strcmp(arg, "--timings") == 0) {
      if ((allowed & kFlagTimings) == 0) {
        *bad = std::string("flag not supported by this command: ") + arg;
        return false;
      }
      flags->timings = true;
      continue;
    }
    if (std::strncmp(arg, "--mode=", 7) == 0) {
      // The one string-valued flag: bypass the shared int parsing below.
      if ((allowed & kFlagMode) == 0) {
        *bad = std::string("flag not supported by this command: ") + arg;
        return false;
      }
      flags->mode = arg + 7;
      if (flags->mode != "mismatch" && flags->mode != "edit") {
        *bad = std::string("bad value in ") + arg +
               " (want mismatch or edit)";
        return false;
      }
      continue;
    }
    if (std::strncmp(arg, "--shards=", 9) == 0) {
      target = &flags->shards;
      value = arg + 9;
      flag = kFlagShards;
    } else if (std::strncmp(arg, "--overlap=", 10) == 0) {
      target = &flags->overlap;
      value = arg + 10;
      flag = kFlagOverlap;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      target = &flags->threads;
      value = arg + 10;
      flag = kFlagThreads;
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      target = &flags->clients;
      value = arg + 10;
      flag = kFlagClients;
    } else if (std::strncmp(arg, "--batch-max=", 12) == 0) {
      target = &flags->batch_max;
      value = arg + 12;
      flag = kFlagBatchMax;
    } else if (std::strncmp(arg, "--linger-us=", 12) == 0) {
      target = &flags->linger_us;
      value = arg + 12;
      flag = kFlagLingerUs;
    } else if (std::strncmp(arg, "--cache-mb=", 11) == 0) {
      target = &flags->cache_mb;
      value = arg + 11;
      flag = kFlagCacheMb;
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      target = &flags->k;
      value = arg + 4;
      flag = kFlagK;
    } else if (std::strncmp(arg, "--listen=", 9) == 0) {
      target = &flags->listen;
      value = arg + 9;
      flag = kFlagListen;
    } else if (std::strncmp(arg, "--max-pending=", 14) == 0) {
      target = &flags->max_pending;
      value = arg + 14;
      flag = kFlagMaxPending;
    } else if (std::strncmp(arg, "--format=", 9) == 0) {
      target = &flags->format;
      value = arg + 9;
      flag = kFlagFormat;
    } else {
      *bad = std::string("unknown flag ") + arg;
      return false;
    }
    if ((allowed & flag) == 0) {
      *bad = std::string("flag not supported by this command: ") + arg;
      return false;
    }
    // Flag values land in int32 option fields; out-of-range input must be a
    // loud error, not a silent wrap to some other configuration.
    if (!ParseInt64(value, target) || *target < 0 ||
        *target > std::numeric_limits<int32_t>::max()) {
      *bad = std::string("bad value in ") + arg;
      return false;
    }
    if (flag == kFlagThreads) flags->threads_set = true;
    if (flag == kFlagListen) flags->listen_set = true;
    if (flag == kFlagFormat &&
        (flags->format < pti::serde::kInterchangeVersion ||
         flags->format > pti::serde::kContainerVersion)) {
      *bad = std::string("bad value in ") + arg + " (want 2 or 3)";
      return false;
    }
  }
  return true;
}

/// Reads `path` whole. The stream state is checked *after* the read, so a
/// failure mid-file (EIO, truncated NFS read, ...) surfaces as an IOError
/// with the errno cause instead of silently returning a short buffer that a
/// later Load would misdiagnose as container corruption.
pti::Status ReadFile(const std::string& path, std::string* out) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return pti::Status::IOError("cannot read " + path + ": " +
                                std::strerror(errno));
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return pti::Status::IOError("cannot read " + path + ": " +
                                std::strerror(errno));
  }
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size));
  if (size > 0) in.read(&(*out)[0], size);
  if (!in || in.gcount() != size) {
    return pti::Status::IOError("cannot read " + path + ": " +
                                (errno != 0 ? std::strerror(errno)
                                            : "short read"));
  }
  return pti::Status::OK();
}

/// Writes `data` to `<path>.tmp`, syncs it, renames it over `path`, then
/// syncs the directory, so an interrupted or failed write (crash, power
/// loss, full disk) can never leave a torn or empty file under the final
/// name: without the first fsync the rename can reach the disk before the
/// data does. Write, sync and close failures are real write failures (close
/// is where some filesystems surface deferred errors) and are propagated.
pti::Status WriteFile(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what, int fd) {
    const std::string cause = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    return pti::Status::IOError("cannot " + what + " " + tmp + ": " + cause);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return fail("write", -1);
  for (size_t done = 0; done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write", fd);
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("sync", fd);
  if (::close(fd) != 0) return fail("close", -1);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string cause = std::strerror(errno);
    std::remove(tmp.c_str());
    return pti::Status::IOError("cannot write " + path +
                                " (rename from temporary): " + cause);
  }
  // The rename itself is durable only once the directory entry is.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0             ? "/"
                                                   : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || ::fsync(dir_fd) != 0) {
    const std::string cause = std::strerror(errno);
    if (dir_fd >= 0) ::close(dir_fd);
    return pti::Status::IOError("cannot sync directory " + dir + " after " +
                                "writing " + path + ": " + cause);
  }
  ::close(dir_fd);
  return pti::Status::OK();
}

/// Reads the .pus input of a build* subcommand. An index over zero
/// positions answers nothing, and writing one hides a wrong or truncated
/// input file, so the CLI rejects it (InvalidArgument, exit 1, nothing
/// written); the library itself still indexes empty strings.
pti::StatusOr<pti::UncertainString> ReadBuildInput(
    const std::string& path, bool require_unit_sums = true) {
  std::string text;
  PTI_RETURN_IF_ERROR(ReadFile(path, &text));
  auto s = pti::ParseUncertainString(text, require_unit_sums);
  if (s.ok() && s->size() == 0) {
    return pti::Status::InvalidArgument(
        path + ": the input has no positions; nothing to index");
  }
  return s;
}

/// Opens an index file and reports its kind; `blob` receives the bytes —
/// mmap'd when `use_mmap` (zero-copy for v3 containers, page cache shared
/// across processes), read into an owned heap blob otherwise. Either way
/// the BlobPtr is what the kind-specific Load pins as backing.
pti::StatusOr<pti::serde::IndexKind> OpenIndexBlob(const std::string& path,
                                                   bool use_mmap,
                                                   pti::serde::BlobPtr* blob) {
  auto opened = use_mmap ? pti::serde::MapFile(path)
                         : pti::serde::ReadFileToBlob(path);
  if (!opened.ok()) {
    return pti::Status::IOError("cannot read " + path + ": " +
                                opened.status().message());
  }
  *blob = std::move(opened).value();
  return pti::serde::PeekKind((*blob)->view());
}

int SaveIndexFile(const pti::Status& save_status, const std::string& blob,
                  const std::string& path) {
  if (!save_status.ok()) return Fail(save_status.ToString());
  const pti::Status written = WriteFile(path, blob);
  if (!written.ok()) return Fail(written.ToString());
  return 0;
}

/// Per-stage construction breakdown (--timings). Goes to stderr so piped
/// stdout output stays machine-readable.
void PrintTimings(const pti::BuildTimings& t) {
  std::fprintf(stderr,
               "timings: transform %.3f ms, sa %.3f ms, lcp %.3f ms, "
               "fm %.3f ms, derived %.3f ms, rmq %.3f ms\n",
               t.transform_ms, t.sa_ms, t.lcp_ms, t.fm_ms, t.derived_ms,
               t.rmq_ms);
}

void PrintMatches(const std::vector<pti::Match>& matches) {
  for (const auto& m : matches) {
    std::printf("%lld\t%.6f\n", static_cast<long long>(m.position),
                m.probability);
  }
  std::fprintf(stderr, "%zu match(es)\n", matches.size());
}

int CmdBuild(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv,
                 kFlagCompact | kFlagFormat | kFlagThreads | kFlagTimings,
                 &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() < 2 || pos.size() > 3) return Usage();
  auto s = ReadBuildInput(pos[0]);
  if (!s.ok()) return Fail(s.status().ToString());
  pti::IndexOptions options;
  if (pos.size() >= 3 &&
      !ParseDouble(pos[2], &options.transform.tau_min)) {
    return UsageError(std::string("bad tau_min '") + pos[2] + "'");
  }
  options.compact = flags.compact;
  pti::BuildTimings timings;
  pti::BuildOptions build;
  if (flags.threads_set) build.threads = static_cast<int32_t>(flags.threads);
  if (flags.timings) build.timings = &timings;
  auto index = pti::SubstringIndex::Build(*s, options, build);
  if (!index.ok()) return Fail(index.status().ToString());
  if (flags.timings) PrintTimings(timings);
  std::string blob;
  const int rc = SaveIndexFile(
      index->Save(&blob, static_cast<uint32_t>(flags.format)), blob, pos[1]);
  if (rc != 0) return rc;
  const auto stats = index->stats();
  std::printf("indexed %lld positions (tau_min %.4g%s): %zu factors, "
              "%zu chars, %zu bytes on disk\n",
              static_cast<long long>(stats.original_length),
              options.transform.tau_min,
              options.compact ? ", compact" : "", stats.num_factors,
              stats.transformed_length, blob.size());
  return 0;
}

int CmdBuildSpecial(int argc, char** argv) {
  if (argc != 4) return Usage();
  // §4 special strings keep per-position mass below 1 (the "no occurrence"
  // event), so the unit-sum invariant does not apply.
  auto s = ReadBuildInput(argv[2], /*require_unit_sums=*/false);
  if (!s.ok()) return Fail(s.status().ToString());
  auto index = pti::SpecialIndex::Build(*s, pti::SpecialIndexOptions{});
  if (!index.ok()) return Fail(index.status().ToString());
  std::string blob;
  const int rc = SaveIndexFile(index->Save(&blob), blob, argv[3]);
  if (rc != 0) return rc;
  const auto stats = index->stats();
  std::printf("indexed %lld positions (special): %zu bytes on disk\n",
              static_cast<long long>(stats.length), blob.size());
  return 0;
}

int CmdBuildApprox(int argc, char** argv) {
  if (argc < 4 || argc > 6) return Usage();
  auto s = ReadBuildInput(argv[2]);
  if (!s.ok()) return Fail(s.status().ToString());
  pti::ApproxOptions options;
  if (argc >= 5 &&
      !ParseDouble(argv[4], &options.transform.tau_min)) {
    return UsageError(std::string("bad tau_min '") + argv[4] + "'");
  }
  if (argc >= 6 && !ParseDouble(argv[5], &options.epsilon)) {
    return UsageError(std::string("bad epsilon '") + argv[5] + "'");
  }
  auto index = pti::ApproxIndex::Build(*s, options);
  if (!index.ok()) return Fail(index.status().ToString());
  std::string blob;
  const int rc = SaveIndexFile(index->Save(&blob), blob, argv[3]);
  if (rc != 0) return rc;
  const auto stats = index->stats();
  std::printf("indexed %lld positions (tau_min %.4g, epsilon %.4g): "
              "%zu links, %zu bytes on disk\n",
              static_cast<long long>(stats.original_length),
              options.transform.tau_min, options.epsilon, stats.num_links,
              blob.size());
  return 0;
}

int CmdBuildListing(int argc, char** argv) {
  if (argc < 5) return Usage();
  pti::ListingOptions options;
  if (!ParseDouble(argv[3], &options.transform.tau_min)) {
    return UsageError(std::string("bad tau_min '") + argv[3] + "'");
  }
  std::vector<pti::UncertainString> docs;
  for (int a = 4; a < argc; ++a) {
    auto s = ReadBuildInput(argv[a]);
    if (!s.ok()) return Fail(s.status().ToString());
    docs.push_back(std::move(s).value());
  }
  auto index = pti::ListingIndex::Build(docs, options);
  if (!index.ok()) return Fail(index.status().ToString());
  std::string blob;
  const int rc = SaveIndexFile(index->Save(&blob), blob, argv[2]);
  if (rc != 0) return rc;
  const auto stats = index->stats();
  std::printf("indexed %d documents (%lld positions, tau_min %.4g): "
              "%zu bytes on disk\n",
              stats.num_docs, static_cast<long long>(stats.total_positions),
              options.transform.tau_min, blob.size());
  return 0;
}

int CmdBuildSharded(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv,
                 kFlagShards | kFlagOverlap | kFlagThreads | kFlagCompact |
                     kFlagFormat | kFlagTimings,
                 &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() < 2 || pos.size() > 3) return Usage();
  auto s = ReadBuildInput(pos[0]);
  if (!s.ok()) return Fail(s.status().ToString());
  pti::ShardedIndexOptions options;
  if (pos.size() >= 3 &&
      !ParseDouble(pos[2], &options.index.transform.tau_min)) {
    return UsageError(std::string("bad tau_min '") + pos[2] + "'");
  }
  options.num_shards = static_cast<int32_t>(flags.shards);
  options.overlap = static_cast<int32_t>(flags.overlap);
  options.num_threads = static_cast<int32_t>(flags.threads);
  options.index.compact = flags.compact;
  pti::BuildTimings timings;
  if (flags.timings) options.build_timings = &timings;
  auto index = pti::ShardedIndex::Build(*s, options);
  if (!index.ok()) return Fail(index.status().ToString());
  if (flags.timings) PrintTimings(timings);
  std::string blob;
  const int rc = SaveIndexFile(
      index->Save(&blob, static_cast<uint32_t>(flags.format)), blob, pos[1]);
  if (rc != 0) return rc;
  const auto stats = index->stats();
  std::printf("indexed %lld positions (tau_min %.4g): %d shards, "
              "overlap %d, %zu factors, %zu chars, %zu bytes on disk\n",
              static_cast<long long>(stats.original_length),
              options.index.transform.tau_min, stats.num_shards,
              stats.overlap, stats.num_factors, stats.transformed_length,
              blob.size());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv, kFlagMmap, &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() != 3) return Usage();
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());
  const std::string pattern = pos[1];
  double tau = 0.0;
  if (!ParseDouble(pos[2], &tau)) {
    return UsageError(std::string("bad tau '") + pos[2] + "'");
  }
  pti::Status st;
  std::vector<pti::Match> matches;
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring: {
      auto index = pti::SubstringIndex::Load(blob->view(), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->Query(pattern, tau, &matches);
      break;
    }
    case pti::serde::IndexKind::kSharded: {
      auto index = pti::ShardedIndex::Load(blob->view(), 1, blob);
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->Query(pattern, tau, &matches);
      break;
    }
    case pti::serde::IndexKind::kApprox: {
      auto index = pti::ApproxIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->Query(pattern, tau, &matches);
      break;
    }
    case pti::serde::IndexKind::kSpecial: {
      auto index = pti::SpecialIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->Query(pattern, tau, &matches);
      break;
    }
    case pti::serde::IndexKind::kListing: {
      auto index = pti::ListingIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      std::vector<pti::DocMatch> docs;
      st = index->Query(pattern, tau, &docs);
      if (!st.ok()) return Fail(st.ToString());
      for (const auto& d : docs) {
        std::printf("doc %d\t%.6f\n", d.doc, d.relevance);
      }
      std::fprintf(stderr, "%zu document(s)\n", docs.size());
      return 0;
    }
  }
  if (!st.ok()) return Fail(st.ToString());
  PrintMatches(matches);
  return 0;
}

// Approximate threshold query: report positions where some variant of the
// pattern within k errors (mismatches or edits, per --mode) clears tau.
int CmdFuzzy(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv, kFlagK | kFlagMode | kFlagMmap, &pos, &flags,
                 &bad)) {
    return UsageError(bad);
  }
  if (pos.size() != 3) return Usage();
  const std::string pattern = pos[1];
  double tau = 0.0;
  if (!ParseDouble(pos[2], &tau)) {
    return UsageError(std::string("bad tau '") + pos[2] + "'");
  }
  pti::FuzzyParams params;
  params.k = static_cast<int32_t>(flags.k);
  params.metric = flags.mode == "edit" ? pti::FuzzyMetric::kEdit
                                       : pti::FuzzyMetric::kMismatch;
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());
  pti::Status st;
  std::vector<pti::Match> matches;
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring: {
      auto index = pti::SubstringIndex::Load(blob->view(), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->QueryFuzzy(pattern, tau, params, &matches);
      break;
    }
    case pti::serde::IndexKind::kSharded: {
      auto index = pti::ShardedIndex::Load(blob->view(), 1, blob);
      if (!index.ok()) return Fail(index.status().ToString());
      st = index->QueryFuzzy(pattern, tau, params, &matches);
      break;
    }
    default:
      return Fail("fuzzy requires a substring or sharded index, got a " +
                  std::string(pti::serde::KindName(*kind)) + " index");
  }
  if (!st.ok()) return Fail(st.ToString());
  PrintMatches(matches);
  return 0;
}

// Patterns file: one pattern per line, optionally followed by whitespace and
// a per-line tau overriding the command-line default. '#' comments and blank
// lines are skipped.
pti::Status ParsePatternsFile(const std::string& text, double default_tau,
                              std::vector<pti::BatchQuery>* out) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    line.erase(0, first);
    if (line[0] == '#') continue;
    pti::BatchQuery q;
    q.tau = default_tau;
    const size_t space = line.find_first_of(" \t");
    if (space == std::string::npos) {
      q.pattern = line;
    } else {
      q.pattern = line.substr(0, space);
      const size_t value = line.find_first_not_of(" \t", space);
      if (value != std::string::npos &&
          !ParseDouble(line.c_str() + value, &q.tau)) {
        return pti::Status::InvalidArgument(
            "bad tau on line " + std::to_string(lineno));
      }
    }
    out->push_back(std::move(q));
  }
  return pti::Status::OK();
}

/// A serve-workload directive: after the first `after_query` queries have
/// been submitted, hot-swap the served index to `path`.
struct ServeDirective {
  size_t after_query = 0;
  std::string path;
};

// Serve workload: the batch patterns format plus "!directive" lines.
// "!reload <index.pti>" splits the workload into segments; the engine is
// atomically reloaded between them (in-flight requests drain on the
// generation they started with).
pti::Status ParseServeScript(const std::string& text, double default_tau,
                             std::vector<pti::BatchQuery>* out,
                             std::vector<ServeDirective>* directives) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  std::string plain;  // non-directive lines, re-parsed as a patterns file
  size_t queries_so_far = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string trimmed = line;
    while (!trimmed.empty() &&
           (trimmed.back() == '\r' || trimmed.back() == ' ' ||
            trimmed.back() == '\t')) {
      trimmed.pop_back();
    }
    const size_t first = trimmed.find_first_not_of(" \t");
    if (first != std::string::npos) trimmed.erase(0, first);
    if (!trimmed.empty() && trimmed[0] == '!') {
      if (trimmed.rfind("!reload", 0) == 0) {
        const size_t value = trimmed.find_first_not_of(" \t", 7);
        if (trimmed.size() > 7 && trimmed[7] != ' ' && trimmed[7] != '\t') {
          return pti::Status::InvalidArgument(
              "unknown directive on line " + std::to_string(lineno) +
              " (want !reload <index.pti>)");
        }
        if (value == std::string::npos) {
          return pti::Status::InvalidArgument(
              "!reload needs an index path on line " +
              std::to_string(lineno));
        }
        ServeDirective d;
        d.after_query = queries_so_far;
        d.path = trimmed.substr(value);
        directives->push_back(std::move(d));
        continue;
      }
      return pti::Status::InvalidArgument(
          "unknown directive on line " + std::to_string(lineno) +
          " (want !reload <index.pti>)");
    }
    // Count the queries this line contributes (0 for comments/blanks) by
    // running the shared parser on it, so directive boundaries stay in sync
    // with ParsePatternsFile's exact skipping rules.
    std::vector<pti::BatchQuery> one;
    pti::Status st = ParsePatternsFile(line, default_tau, &one);
    if (!st.ok()) {
      return pti::Status::InvalidArgument(
          "bad tau on line " + std::to_string(lineno));
    }
    queries_so_far += one.size();
    for (auto& q : one) out->push_back(std::move(q));
  }
  return pti::Status::OK();
}

int PrintBatchResults(const std::vector<pti::BatchQuery>& queries,
                      const std::vector<std::vector<pti::Match>>& results) {
  size_t total = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    for (const auto& m : results[i]) {
      std::printf("%zu\t%lld\t%.6f\n", i,
                  static_cast<long long>(m.position), m.probability);
    }
    total += results[i].size();
  }
  std::fprintf(stderr, "%zu quer%s, %zu match(es)\n", queries.size(),
               queries.size() == 1 ? "y" : "ies", total);
  return 0;
}

int CmdBatch(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv, kFlagThreads | kFlagMmap, &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() != 3) return Usage();
  double tau = 0.0;
  if (!ParseDouble(pos[2], &tau)) {
    return UsageError(std::string("bad tau '") + pos[2] + "'");
  }
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());
  std::string patterns_text;
  const pti::Status read = ReadFile(pos[1], &patterns_text);
  if (!read.ok()) return Fail(read.ToString());
  std::vector<pti::BatchQuery> queries;
  const pti::Status parsed = ParsePatternsFile(patterns_text, tau, &queries);
  if (!parsed.ok()) return Fail(parsed.ToString());
  std::vector<std::vector<pti::Match>> results;
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring: {
      if (flags.threads_set) {
        return Fail("--threads applies to sharded indexes; " +
                    std::string(pos[0]) + " holds a substring index");
      }
      auto index = pti::SubstringIndex::Load(blob->view(), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      const pti::Status st = index->QueryBatch(queries, &results);
      if (!st.ok()) return Fail(st.ToString());
      break;
    }
    case pti::serde::IndexKind::kSharded: {
      auto index = pti::ShardedIndex::Load(
          blob->view(), static_cast<int32_t>(flags.threads), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      const pti::Status st = index->QueryBatch(queries, &results);
      if (!st.ok()) return Fail(st.ToString());
      break;
    }
    default:
      return Fail("batch requires a substring or sharded index, got a " +
                  std::string(pti::serde::KindName(*kind)) + " index");
  }
  return PrintBatchResults(queries, results);
}

// Serve over TCP (--listen): bind loopback, print the bound port on stdout
// (the readiness handshake scripts and tests wait for), serve pti_client
// traffic until stdin closes, then stop the listener, drain the engine, and
// print both layers' stats to stderr.
int RunServeListener(pti::ServingEngine* engine, int32_t port) {
  pti::net::NetServerOptions net_options;
  net_options.port = port;
  pti::net::NetServer server(engine, net_options);
  const pti::Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::printf("%d\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr, "serving on 127.0.0.1:%d (close stdin to stop)\n",
               server.port());
  // Block until the parent closes stdin — the conventional way a harness
  // or operator shell scopes the server's lifetime.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  engine->Stop();
  const auto net = server.stats();
  const auto stats = engine->stats();
  std::fprintf(
      stderr,
      "net: %llu conn(s) (%llu rejected), %llu frames in, %llu out "
      "(%llu inline), %llu protocol error(s), %llu quer%s, %llu reload(s)\n"
      "serving: %llu submitted, %llu completed, %llu shed, %llu batches, "
      "%llu cache hits, %llu merges, generation %llu\n",
      static_cast<unsigned long long>(net.connections_accepted),
      static_cast<unsigned long long>(net.connections_rejected),
      static_cast<unsigned long long>(net.frames_received),
      static_cast<unsigned long long>(net.frames_sent),
      static_cast<unsigned long long>(net.responses_inline),
      static_cast<unsigned long long>(net.protocol_errors),
      static_cast<unsigned long long>(net.queries),
      net.queries == 1 ? "y" : "ies",
      static_cast<unsigned long long>(net.reloads),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.inflight_merges),
      static_cast<unsigned long long>(stats.generation));
  return 0;
}

// Serving front end: N client threads submit the workload concurrently to a
// ServingEngine; the engine coalesces them into micro-batches and serves
// repeats from its (pattern, tau) cache. Results print in input order, in
// the same format as `batch`; requests that fail individually are reported
// on stderr without suppressing their batch-mates' output. With --listen
// the workload instead arrives over TCP (RunServeListener above).
int CmdServe(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv,
                 kFlagClients | kFlagBatchMax | kFlagLingerUs | kFlagCacheMb |
                     kFlagThreads | kFlagMmap | kFlagListen | kFlagMaxPending,
                 &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  const bool listen_mode = flags.listen_set;
  if (pos.size() != (listen_mode ? size_t{1} : size_t{3})) return Usage();
  if (flags.clients < 1 || flags.clients > 256) {
    return UsageError("bad value in --clients (want 1..256)");
  }
  if (flags.listen > 65535) {
    return UsageError("bad value in --listen (want 0..65535)");
  }
  double tau = 0.0;
  if (!listen_mode && !ParseDouble(pos[2], &tau)) {
    return UsageError(std::string("bad tau '") + pos[2] + "'");
  }
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());

  std::vector<pti::BatchQuery> queries;
  std::vector<ServeDirective> directives;
  if (!listen_mode) {
    std::string patterns_text;
    if (std::strcmp(pos[1], "-") == 0) {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      patterns_text = buf.str();
    } else {
      const pti::Status read = ReadFile(pos[1], &patterns_text);
      if (!read.ok()) return Fail(read.ToString());
    }
    const pti::Status parsed =
        ParseServeScript(patterns_text, tau, &queries, &directives);
    if (!parsed.ok()) return Fail(parsed.ToString());
  }

  pti::ServingOptions options;
  options.max_batch = static_cast<int32_t>(flags.batch_max);
  options.linger_us = flags.linger_us;
  options.num_workers = static_cast<int32_t>(flags.threads);
  options.cache_bytes = static_cast<size_t>(flags.cache_mb) << 20;
  options.max_pending = static_cast<int32_t>(flags.max_pending);

  std::unique_ptr<pti::ServingEngine> engine;
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring: {
      auto index = pti::SubstringIndex::Load(blob->view(), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      engine.reset(
          new pti::ServingEngine(std::move(index).value(), options));
      break;
    }
    case pti::serde::IndexKind::kSharded: {
      auto index = pti::ShardedIndex::Load(
          blob->view(), static_cast<int32_t>(flags.threads), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      engine.reset(
          new pti::ServingEngine(std::move(index).value(), options));
      break;
    }
    default:
      return Fail("serve requires a substring or sharded index, got a " +
                  std::string(pti::serde::KindName(*kind)) + " index");
  }

  if (listen_mode) {
    return RunServeListener(engine.get(), static_cast<int32_t>(flags.listen));
  }

  const size_t clients =
      std::min<size_t>(static_cast<size_t>(flags.clients),
                       queries.empty() ? 1 : queries.size());
  std::vector<std::future<pti::ServingEngine::Result>> futures(queries.size());
  // Submits queries [begin, end) from `clients` concurrent client threads.
  const auto submit_range = [&](size_t begin, size_t end) {
    if (begin >= end) return;
    const size_t n = std::min<size_t>(clients, end - begin);
    std::vector<std::thread> client_threads;
    client_threads.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      client_threads.emplace_back([c, n, begin, end, &queries, &futures,
                                   &engine] {
        for (size_t i = begin + c; i < end; i += n) {
          futures[i] = engine->Submit({queries[i].pattern, queries[i].tau});
        }
      });
    }
    for (auto& t : client_threads) t.join();
  };

  // Each !reload directive ends a submission segment: everything before it
  // is in flight (and drains on its starting generation), then the engine
  // swaps, then the next segment is submitted. A failed reload keeps the
  // previous generation serving and is reported as an operational failure
  // at exit — after the whole workload has been answered.
  size_t submitted = 0;
  size_t reload_failures = 0;
  std::string first_reload_error;
  for (const auto& d : directives) {
    submit_range(submitted, d.after_query);
    submitted = d.after_query;
    const pti::Status st = engine->Reload(d.path, flags.mmap);
    if (!st.ok()) {
      if (reload_failures == 0) first_reload_error = st.ToString();
      ++reload_failures;
      std::fprintf(stderr,
                   "reload %s failed (previous generation still serving): "
                   "%s\n",
                   d.path.c_str(), st.ToString().c_str());
    } else {
      std::fprintf(
          stderr, "reloaded %s (generation %llu)\n", d.path.c_str(),
          static_cast<unsigned long long>(engine->stats().generation));
    }
  }
  submit_range(submitted, queries.size());

  size_t total = 0;
  size_t failed = 0;
  std::string first_error;
  for (size_t i = 0; i < futures.size(); ++i) {
    pti::ServingEngine::Result result = futures[i].get();
    if (!result.status.ok()) {
      if (failed == 0) first_error = result.status.ToString();
      ++failed;
      continue;
    }
    for (const auto& m : result.matches) {
      std::printf("%zu\t%lld\t%.6f\n", i,
                  static_cast<long long>(m.position), m.probability);
    }
    total += result.matches.size();
  }
  const auto stats = engine->stats();
  std::fprintf(stderr,
               "%zu quer%s, %zu match(es), %zu client(s)\n"
               "serving: %llu batches (%llu batched), %llu cache hits, "
               "%llu merges, %llu fallbacks, %llu reload(s), "
               "generation %llu\n",
               queries.size(), queries.size() == 1 ? "y" : "ies", total,
               clients, static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.batched_queries),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.inflight_merges),
               static_cast<unsigned long long>(stats.fallback_queries),
               static_cast<unsigned long long>(stats.reloads),
               static_cast<unsigned long long>(stats.generation));
  if (failed > 0) {
    return Fail(std::to_string(failed) + " request(s) failed; first: " +
                first_error);
  }
  if (reload_failures > 0) {
    return Fail(std::to_string(reload_failures) +
                " reload(s) failed; first: " + first_reload_error);
  }
  return 0;
}

int CmdTopK(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv, kFlagMmap, &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() != 4) return Usage();
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());
  if (*kind != pti::serde::IndexKind::kSubstring) {
    return Fail("topk requires a substring index, got a " +
                std::string(pti::serde::KindName(*kind)) + " index");
  }
  double tau = 0.0;
  int64_t k = 0;
  if (!ParseDouble(pos[2], &tau)) {
    return UsageError(std::string("bad tau '") + pos[2] + "'");
  }
  if (!ParseInt64(pos[3], &k) || k < 0) {
    return UsageError(std::string("bad k '") + pos[3] + "'");
  }
  auto index = pti::SubstringIndex::Load(blob->view(), blob);
  if (!index.ok()) return Fail(index.status().ToString());
  std::vector<pti::Match> matches;
  const pti::Status st =
      index->QueryTopK(pos[1], tau, static_cast<size_t>(k), &matches);
  if (!st.ok()) return Fail(st.ToString());
  for (const auto& m : matches) {
    std::printf("%lld\t%.6f\n", static_cast<long long>(m.position),
                m.probability);
  }
  std::fprintf(stderr, "%zu match(es)\n", matches.size());
  return 0;
}

int CmdStat(int argc, char** argv) {
  std::vector<const char*> pos;
  Flags flags;
  std::string bad;
  if (!SplitArgs(argc, argv, kFlagMmap, &pos, &flags, &bad)) {
    return UsageError(bad);
  }
  if (pos.size() != 1) return Usage();
  pti::serde::BlobPtr blob;
  auto kind = OpenIndexBlob(pos[0], flags.mmap, &blob);
  if (!kind.ok()) return Fail(kind.status().ToString());
  std::printf("index kind           %s\n", pti::serde::KindName(*kind));
  std::printf("bytes on disk        %zu\n", blob->view().size());
  {
    auto version = pti::serde::PeekVersion(blob->view());
    if (version.ok()) {
      std::printf("container version    %u%s\n", *version,
                  blob->mapped() ? " (mmap)" : "");
    }
  }
  switch (*kind) {
    case pti::serde::IndexKind::kSubstring: {
      auto index = pti::SubstringIndex::Load(blob->view(), blob);
      if (!index.ok()) return Fail(index.status().ToString());
      const auto stats = index->stats();
      std::printf("original length      %lld\n",
                  static_cast<long long>(stats.original_length));
      std::printf("maximal factors      %zu\n", stats.num_factors);
      std::printf("transformed length   %zu\n", stats.transformed_length);
      std::printf("short depth limit K  %d\n", stats.short_depth_limit);
      std::printf("mode                 %s\n",
                  index->options().compact ? "compact (FM-index)"
                                           : "suffix tree");
      std::printf("suffix tree nodes    %zu\n", stats.num_tree_nodes);
      std::printf("tau_min              %.6g\n",
                  index->options().transform.tau_min);
      std::printf("memory usage (bytes) %zu\n", index->MemoryUsage());
      break;
    }
    case pti::serde::IndexKind::kSharded: {
      auto index = pti::ShardedIndex::Load(blob->view(), 1, blob);
      if (!index.ok()) return Fail(index.status().ToString());
      const auto stats = index->stats();
      std::printf("original length      %lld\n",
                  static_cast<long long>(stats.original_length));
      std::printf("shards               %d\n", stats.num_shards);
      std::printf("overlap              %d\n", stats.overlap);
      std::printf("max pattern length   %d\n", stats.overlap + 1);
      std::printf("maximal factors      %zu\n", stats.num_factors);
      std::printf("transformed length   %zu\n", stats.transformed_length);
      std::printf("tau_min              %.6g\n",
                  index->options().index.transform.tau_min);
      std::printf("memory usage (bytes) %zu\n", index->MemoryUsage());
      break;
    }
    case pti::serde::IndexKind::kApprox: {
      auto index = pti::ApproxIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      const auto stats = index->stats();
      std::printf("original length      %lld\n",
                  static_cast<long long>(stats.original_length));
      std::printf("transformed length   %zu\n", stats.transformed_length);
      std::printf("marked nodes         %zu\n", stats.num_marked_nodes);
      std::printf("links                %zu\n", stats.num_links);
      std::printf("memory usage (bytes) %zu\n", index->MemoryUsage());
      break;
    }
    case pti::serde::IndexKind::kSpecial: {
      auto index = pti::SpecialIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      const auto stats = index->stats();
      std::printf("length               %lld\n",
                  static_cast<long long>(stats.length));
      std::printf("short depth limit K  %d\n", stats.short_depth_limit);
      std::printf("suffix tree nodes    %zu\n", stats.num_tree_nodes);
      std::printf("memory usage (bytes) %zu\n", index->MemoryUsage());
      break;
    }
    case pti::serde::IndexKind::kListing: {
      auto index = pti::ListingIndex::Load(blob->view());
      if (!index.ok()) return Fail(index.status().ToString());
      const auto stats = index->stats();
      std::printf("documents            %d\n", stats.num_docs);
      std::printf("total positions      %lld\n",
                  static_cast<long long>(stats.total_positions));
      std::printf("maximal factors      %zu\n", stats.num_factors);
      std::printf("transformed length   %zu\n", stats.transformed_length);
      std::printf("short depth limit K  %d\n", stats.short_depth_limit);
      std::printf("memory usage (bytes) %zu\n", index->MemoryUsage());
      break;
    }
  }
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc != 6) return Usage();
  pti::DatasetOptions options;
  int64_t seed = 0;
  double theta = 0.0;
  if (!ParseInt64(argv[2], &options.length) || options.length < 0) {
    return UsageError(std::string("bad length '") + argv[2] + "'");
  }
  if (!ParseDouble(argv[3], &theta) || theta < 0.0 || theta > 1.0) {
    return UsageError(std::string("bad theta '") + argv[3] + "'");
  }
  if (!ParseInt64(argv[4], &seed)) {
    return UsageError(std::string("bad seed '") + argv[4] + "'");
  }
  options.theta = theta;
  options.seed = static_cast<uint64_t>(seed);
  const pti::UncertainString s = pti::GenerateUncertainString(options);
  const pti::Status written = WriteFile(argv[5], pti::FormatUncertainString(s));
  if (!written.ok()) return Fail(written.ToString());
  std::printf("wrote %lld positions (theta %.2f) to %s\n",
              static_cast<long long>(s.size()), options.theta, argv[5]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return CmdBuild(argc, argv);
  if (cmd == "build-special") return CmdBuildSpecial(argc, argv);
  if (cmd == "build-approx") return CmdBuildApprox(argc, argv);
  if (cmd == "build-listing") return CmdBuildListing(argc, argv);
  if (cmd == "build-sharded") return CmdBuildSharded(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "fuzzy") return CmdFuzzy(argc, argv);
  if (cmd == "batch") return CmdBatch(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "topk") return CmdTopK(argc, argv);
  if (cmd == "stat") return CmdStat(argc, argv);
  if (cmd == "gen") return CmdGen(argc, argv);
  return UsageError("unknown command '" + cmd + "'");
}
