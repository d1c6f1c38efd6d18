// Differential property test: a long random operation sequence is applied
// simultaneously to the LFS, the FFS baseline, and a trivial in-memory model.
// All three must agree at every step. This is the strongest functional
// correctness check in the suite — the two real filesystems share no storage
// code, so agreement means both implement the FileSystem contract.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ffs/ffs.h"
#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;

// In-memory reference model of a flat-ish filesystem namespace.
class ModelFs {
 public:
  struct Node {
    bool is_dir = false;
    std::vector<uint8_t> data;
  };

  bool Exists(const std::string& path) const { return nodes_.count(path) != 0; }
  bool IsDir(const std::string& path) const {
    auto it = nodes_.find(path);
    return it != nodes_.end() && it->second.is_dir;
  }
  void CreateFile(const std::string& path) { nodes_[path] = Node{false, {}}; }
  void Mkdir(const std::string& path) { nodes_[path] = Node{true, {}}; }
  void Remove(const std::string& path) { nodes_.erase(path); }
  bool DirEmpty(const std::string& path) const {
    std::string prefix = path + "/";
    for (const auto& [p, n] : nodes_) {
      if (p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0) {
        return false;
      }
    }
    return true;
  }
  void WriteAt(const std::string& path, uint64_t off, std::span<const uint8_t> data) {
    auto& node = nodes_[path];
    if (node.data.size() < off + data.size()) {
      node.data.resize(off + data.size(), 0);
    }
    std::copy(data.begin(), data.end(), node.data.begin() + off);
  }
  void Truncate(const std::string& path, uint64_t size) {
    nodes_[path].data.resize(size, 0);
  }
  const std::vector<uint8_t>& Data(const std::string& path) { return nodes_[path].data; }
  const std::map<std::string, Node>& nodes() const { return nodes_; }

 private:
  std::map<std::string, Node> nodes_;
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, RandomOpsAgree) {
  LfsConfig cfg = SmallConfig();
  auto lfs_disk = std::make_unique<MemDisk>(cfg.block_size, 16384);  // 16 MB
  auto ffs_disk = std::make_unique<MemDisk>(cfg.block_size, 16384);
  auto lfs_r = LfsFileSystem::Mkfs(lfs_disk.get(), cfg);
  ASSERT_TRUE(lfs_r.ok());
  auto ffs_r = ffs::FfsFileSystem::Mkfs(ffs_disk.get(), cfg.block_size);
  ASSERT_TRUE(ffs_r.ok());
  std::unique_ptr<FileSystem> systems[2] = {std::move(lfs_r).value(),
                                            std::move(ffs_r).value()};
  ModelFs model;

  Rng rng(GetParam());
  std::vector<std::string> dirs = {""};  // "" denotes the root
  auto random_dir = [&]() { return dirs[rng.NextBelow(dirs.size())]; };
  auto random_name = [&]() { return std::string("n").append(std::to_string(rng.NextBelow(40))); };

  for (int step = 0; step < 600; step++) {
    uint64_t op = rng.NextBelow(100);
    std::string dir = random_dir();
    std::string path = dir + "/" + random_name();
    if (op < 30) {
      // Create + write.
      size_t size = rng.NextBelow(20000);
      std::vector<uint8_t> content = testing::TestContent(rng.NextU64() % 1000, size);
      bool model_ok = !model.Exists(path) && (dir.empty() || model.IsDir(dir));
      for (auto& fs : systems) {
        Status st = fs->WriteFile(path, content);
        EXPECT_EQ(st.ok(), model_ok) << path << " step " << step << ": " << st.ToString();
      }
      if (model_ok) {
        model.CreateFile(path);
        model.WriteAt(path, 0, content);
      }
    } else if (op < 45) {
      // Overwrite at a random offset.
      if (model.Exists(path) && !model.IsDir(path)) {
        uint64_t off = rng.NextBelow(30000);
        std::vector<uint8_t> content = testing::TestContent(step, rng.NextBelow(5000) + 1);
        for (auto& fs : systems) {
          auto ino = fs->Lookup(path);
          ASSERT_TRUE(ino.ok());
          ASSERT_OK(fs->WriteAt(*ino, off, content));
        }
        model.WriteAt(path, off, content);
      }
    } else if (op < 60) {
      // Unlink.
      bool model_ok = model.Exists(path) && !model.IsDir(path);
      for (auto& fs : systems) {
        EXPECT_EQ(fs->Unlink(path).ok(), model_ok) << path;
      }
      if (model_ok) {
        model.Remove(path);
      }
    } else if (op < 70) {
      // Mkdir.
      bool model_ok = !model.Exists(path) && (dir.empty() || model.IsDir(dir));
      for (auto& fs : systems) {
        EXPECT_EQ(fs->Mkdir(path).ok(), model_ok) << path;
      }
      if (model_ok) {
        model.Mkdir(path);
        dirs.push_back(path);
      }
    } else if (op < 80) {
      // Truncate.
      if (model.Exists(path) && !model.IsDir(path)) {
        uint64_t size = rng.NextBelow(25000);
        for (auto& fs : systems) {
          auto ino = fs->Lookup(path);
          ASSERT_TRUE(ino.ok());
          ASSERT_OK(fs->Truncate(*ino, size));
        }
        model.Truncate(path, size);
      }
    } else if (op < 90) {
      // Rename a file to a fresh name in a random directory.
      std::string to_dir = random_dir();
      std::string to = to_dir + "/r" + std::to_string(step);
      if (model.Exists(path) && !model.IsDir(path) && !model.Exists(to)) {
        for (auto& fs : systems) {
          ASSERT_OK(fs->Rename(path, to));
        }
        std::vector<uint8_t> data = model.Data(path);
        model.Remove(path);
        model.CreateFile(to);
        model.WriteAt(to, 0, data);
      }
    } else {
      // Verify a random existing file's contents in both systems.
      if (model.Exists(path) && !model.IsDir(path)) {
        for (auto& fs : systems) {
          auto data = fs->ReadFile(path);
          ASSERT_TRUE(data.ok()) << path;
          EXPECT_EQ(*data, model.Data(path)) << path << " step " << step;
        }
      }
    }
  }

  // Final sweep: every model file matches both filesystems byte for byte.
  for (const auto& [path, node] : model.nodes()) {
    for (auto& fs : systems) {
      if (node.is_dir) {
        EXPECT_TRUE(fs->StatPath(path).ok()) << path;
      } else {
        auto data = fs->ReadFile(path);
        ASSERT_TRUE(data.ok()) << path;
        EXPECT_EQ(*data, node.data) << path;
      }
    }
  }
  // And both survive a sync.
  for (auto& fs : systems) {
    ASSERT_OK(fs->Sync());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace lfs
