#include "src/check/workload.h"

#include <cstdio>
#include <sstream>

#include "src/util/rng.h"

namespace lfs::check {
namespace {

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kUnlink:
      return "unlink";
    case OpKind::kRmdir:
      return "rmdir";
    case OpKind::kLink:
      return "link";
    case OpKind::kRename:
      return "rename";
    case OpKind::kWrite:
      return "write";
    case OpKind::kTruncate:
      return "truncate";
    case OpKind::kSync:
      return "sync";
    case OpKind::kClean:
      return "clean";
  }
  return "?";
}

Result<uint64_t> ParseU64(const std::string& tok) {
  if (tok.empty()) {
    return InvalidArgumentError("empty number");
  }
  uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("bad number '" + tok + "'");
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

// Parses "key=value" returning value, enforcing the expected key.
Result<uint64_t> ParseKeyed(const std::string& tok, std::string_view key) {
  size_t eq = tok.find('=');
  if (eq == std::string::npos || tok.substr(0, eq) != key) {
    return InvalidArgumentError("expected '" + std::string(key) + "=N', got '" + tok + "'");
  }
  return ParseU64(tok.substr(eq + 1));
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream in(line);
  std::string t;
  while (in >> t) {
    toks.push_back(t);
  }
  return toks;
}

}  // namespace

LfsConfig Workload::Config() const {
  // Matches the tests' SmallConfig spirit: tiny segments so a short script
  // crosses many partial-write and cleaning boundaries.
  LfsConfig cfg;
  cfg.block_size = 1024;
  cfg.segment_blocks = 16;
  cfg.max_inodes = 512;
  cfg.clean_lo = 4;
  cfg.clean_hi = 6;
  cfg.segments_per_pass = 4;
  cfg.reserve_segments = 3;
  cfg.write_buffer_blocks = write_buffer_blocks;
  cfg.num_logs = num_logs;
  cfg.read_cache_blocks = 256;
  if (partial_compaction != 0) {
    // A tiny drain budget relative to the 16-block segments forces multi-pass
    // drains, putting crash points between slices of the same victim.
    cfg.partial_compaction = true;
    cfg.partial_compaction_min_u = 0.3;
    cfg.partial_compaction_max_blocks = 4;
  }
  return cfg;
}

std::string Workload::ToText() const {
  std::string out;
  out += "workload " + (name.empty() ? std::string("unnamed") : name) + "\n";
  out += "disk_blocks " + std::to_string(disk_blocks) + "\n";
  out += "num_logs " + std::to_string(num_logs) + "\n";
  out += "write_buffer_blocks " + std::to_string(write_buffer_blocks) + "\n";
  if (partial_compaction != 0) {
    // Only emitted when set, so pre-existing seed scripts round-trip
    // unchanged.
    out += "partial_compaction " + std::to_string(partial_compaction) + "\n";
  }
  for (const Op& op : ops) {
    out += "op ";
    out += KindName(op.kind);
    switch (op.kind) {
      case OpKind::kCreate:
      case OpKind::kMkdir:
      case OpKind::kUnlink:
      case OpKind::kRmdir:
        out += " " + op.a;
        break;
      case OpKind::kLink:
      case OpKind::kRename:
        out += " " + op.a + " " + op.b;
        break;
      case OpKind::kWrite:
        out += " " + op.a + " off=" + std::to_string(op.offset) +
               " len=" + std::to_string(op.length) + " seed=" + std::to_string(op.seed);
        break;
      case OpKind::kTruncate:
        out += " " + op.a + " len=" + std::to_string(op.length);
        break;
      case OpKind::kSync:
      case OpKind::kClean:
        break;
    }
    out += "\n";
  }
  return out;
}

Result<Workload> Workload::FromText(std::string_view text) {
  Workload w;
  w.name = "unnamed";
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    std::vector<std::string> toks = Tokenize(line);
    if (toks.empty() || toks[0][0] == '#') {
      continue;
    }
    auto fail = [&](const std::string& msg) {
      return InvalidArgumentError("workload line " + std::to_string(lineno) + ": " + msg);
    };
    const std::string& kw = toks[0];
    if (kw == "workload") {
      if (toks.size() != 2) {
        return fail("expected 'workload <name>'");
      }
      w.name = toks[1];
    } else if (kw == "disk_blocks" || kw == "num_logs" || kw == "write_buffer_blocks" ||
               kw == "partial_compaction") {
      if (toks.size() != 2) {
        return fail("expected '" + kw + " <n>'");
      }
      LFS_ASSIGN_OR_RETURN(uint64_t v, ParseU64(toks[1]));
      if (kw == "disk_blocks") {
        w.disk_blocks = v;
      } else if (kw == "num_logs") {
        w.num_logs = static_cast<uint32_t>(v);
      } else if (kw == "partial_compaction") {
        w.partial_compaction = static_cast<uint32_t>(v);
      } else {
        w.write_buffer_blocks = static_cast<uint32_t>(v);
      }
    } else if (kw == "op") {
      if (toks.size() < 2) {
        return fail("missing op kind");
      }
      Op op;
      const std::string& k = toks[1];
      if (k == "create" || k == "mkdir" || k == "unlink" || k == "rmdir") {
        if (toks.size() != 3) {
          return fail("expected 'op " + k + " <path>'");
        }
        op.kind = k == "create"   ? OpKind::kCreate
                  : k == "mkdir"  ? OpKind::kMkdir
                  : k == "unlink" ? OpKind::kUnlink
                                  : OpKind::kRmdir;
        op.a = toks[2];
      } else if (k == "link" || k == "rename") {
        if (toks.size() != 4) {
          return fail("expected 'op " + k + " <a> <b>'");
        }
        op.kind = k == "link" ? OpKind::kLink : OpKind::kRename;
        op.a = toks[2];
        op.b = toks[3];
      } else if (k == "write") {
        if (toks.size() != 6) {
          return fail("expected 'op write <path> off=N len=N seed=N'");
        }
        op.kind = OpKind::kWrite;
        op.a = toks[2];
        LFS_ASSIGN_OR_RETURN(op.offset, ParseKeyed(toks[3], "off"));
        LFS_ASSIGN_OR_RETURN(op.length, ParseKeyed(toks[4], "len"));
        LFS_ASSIGN_OR_RETURN(op.seed, ParseKeyed(toks[5], "seed"));
      } else if (k == "truncate") {
        if (toks.size() != 4) {
          return fail("expected 'op truncate <path> len=N'");
        }
        op.kind = OpKind::kTruncate;
        op.a = toks[2];
        LFS_ASSIGN_OR_RETURN(op.length, ParseKeyed(toks[3], "len"));
      } else if (k == "sync" || k == "clean") {
        if (toks.size() != 2) {
          return fail("'op " + k + "' takes no arguments");
        }
        op.kind = k == "sync" ? OpKind::kSync : OpKind::kClean;
      } else {
        return fail("unknown op kind '" + k + "'");
      }
      if (op.kind != OpKind::kSync && op.kind != OpKind::kClean &&
          (op.a.empty() || op.a[0] != '/')) {
        return fail("paths must be absolute");
      }
      w.ops.push_back(std::move(op));
    } else {
      return fail("unknown keyword '" + kw + "'");
    }
  }
  return w;
}

std::vector<uint8_t> DeterministicContent(uint64_t seed, size_t size) {
  std::vector<uint8_t> out(size);
  Rng rng(seed * 1000003ull + size);
  size_t i = 0;
  while (i + 8 <= size) {
    uint64_t v = rng.NextU64();
    for (int b = 0; b < 8; b++) {
      out[i++] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  if (i < size) {
    uint64_t v = rng.NextU64();
    while (i < size) {
      out[i++] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

namespace {

Workload SmallFilesWorkload() {
  Workload w;
  w.name = "smallfiles";
  w.disk_blocks = 2048;
  w.num_logs = 1;
  w.write_buffer_blocks = 16;
  auto create = [&](const std::string& p) { w.ops.push_back({.kind = OpKind::kCreate, .a = p}); };
  auto mkdir = [&](const std::string& p) { w.ops.push_back({.kind = OpKind::kMkdir, .a = p}); };
  auto unlink = [&](const std::string& p) { w.ops.push_back({.kind = OpKind::kUnlink, .a = p}); };
  auto write = [&](const std::string& p, uint64_t off, uint64_t len, uint64_t seed) {
    w.ops.push_back({.kind = OpKind::kWrite, .a = p, .offset = off, .length = len, .seed = seed});
  };
  auto truncate = [&](const std::string& p, uint64_t len) {
    w.ops.push_back({.kind = OpKind::kTruncate, .a = p, .length = len});
  };
  auto sync = [&] { w.ops.push_back({.kind = OpKind::kSync}); };

  mkdir("/d0");
  mkdir("/d1");
  create("/d0/a");
  write("/d0/a", 0, 2500, 11);
  create("/d0/b");
  write("/d0/b", 0, 900, 12);
  create("/d1/c");
  write("/d1/c", 0, 4000, 13);
  sync();
  write("/d0/a", 1024, 2048, 14);  // overwrite + extend
  create("/f0");
  write("/f0", 0, 1500, 15);
  truncate("/d1/c", 1000);
  sync();
  unlink("/d0/b");
  write("/f0", 3000, 1200, 16);  // hole + extend
  create("/d1/d");
  write("/d1/d", 0, 2200, 17);
  truncate("/d0/a", 0);
  write("/d0/a", 0, 800, 18);
  sync();
  w.ops.push_back({.kind = OpKind::kClean});
  write("/d1/d", 512, 3000, 19);
  unlink("/f0");
  create("/f1");
  write("/f1", 0, 600, 20);
  sync();
  write("/f1", 200, 2600, 21);  // tail past the last checkpoint, never synced
  return w;
}

Workload NamespaceWorkload() {
  Workload w;
  w.name = "namespace";
  w.disk_blocks = 2048;
  w.num_logs = 2;
  w.write_buffer_blocks = 12;
  auto op1 = [&](OpKind k, const std::string& a) { w.ops.push_back({.kind = k, .a = a}); };
  auto op2 = [&](OpKind k, const std::string& a, const std::string& b) {
    w.ops.push_back({.kind = k, .a = a, .b = b});
  };
  auto write = [&](const std::string& p, uint64_t off, uint64_t len, uint64_t seed) {
    w.ops.push_back({.kind = OpKind::kWrite, .a = p, .offset = off, .length = len, .seed = seed});
  };
  auto sync = [&] { w.ops.push_back({.kind = OpKind::kSync}); };

  op1(OpKind::kMkdir, "/a");
  op1(OpKind::kMkdir, "/a/sub");
  op1(OpKind::kMkdir, "/b");
  op1(OpKind::kCreate, "/a/f1");
  write("/a/f1", 0, 1800, 31);
  op1(OpKind::kCreate, "/a/f2");
  write("/a/f2", 0, 700, 32);
  op2(OpKind::kLink, "/a/f1", "/b/l1");
  sync();
  op2(OpKind::kRename, "/a/f1", "/a/f3");  // three-way rename cycle: swap f1/f2
  op2(OpKind::kRename, "/a/f2", "/a/f1");
  op2(OpKind::kRename, "/a/f3", "/a/f2");
  op2(OpKind::kLink, "/a/f1", "/a/sub/l2");
  write("/b/l1", 256, 1400, 33);  // write through the hard link
  sync();
  op1(OpKind::kCreate, "/b/g");
  write("/b/g", 0, 2600, 34);
  op2(OpKind::kRename, "/b/g", "/a/sub/g");  // cross-directory move
  op1(OpKind::kUnlink, "/b/l1");
  w.ops.push_back({.kind = OpKind::kTruncate, .a = "/a/f2", .length = 300});
  sync();
  op1(OpKind::kUnlink, "/a/sub/l2");
  op1(OpKind::kUnlink, "/a/f1");
  op1(OpKind::kUnlink, "/a/sub/g");
  op1(OpKind::kRmdir, "/a/sub");
  w.ops.push_back({.kind = OpKind::kClean});
  op1(OpKind::kCreate, "/b/h");
  write("/b/h", 0, 1200, 35);
  op2(OpKind::kRename, "/b/h", "/b/h2");  // tail rename, never synced
  return w;
}

}  // namespace

Result<Workload> CanonicalWorkload(std::string_view name) {
  if (name == "smallfiles") {
    return SmallFilesWorkload();
  }
  if (name == "namespace") {
    return NamespaceWorkload();
  }
  return NotFoundError("unknown canonical workload '" + std::string(name) +
                       "' (try: smallfiles, namespace)");
}

std::vector<std::string> CanonicalWorkloadNames() { return {"smallfiles", "namespace"}; }

}  // namespace lfs::check
