// Chronus local state: the stat-checked settings snapshot, atomic local
// writes, private temp directories for workdir-less envs, and the binary
// model image (bitwise equal to the JSON path, and rejected whole when it
// is corrupt).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <thread>
#include <vector>

#include "chronus/env.hpp"
#include "chronus/model_image.hpp"
#include "chronus/optimizers.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"

// Largest single heap request since the last reset: the image decoder must
// not let a corrupt count size an allocation. Replacing the global operator
// new in this binary is how the test sees every request.
namespace {
std::atomic<std::size_t> g_largest_alloc{0};

void NoteAlloc(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, n,
                                                std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t n) {
  NoteAlloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eco::chronus {
namespace {
namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string tag = name;
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    tag += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir = testing::TempDir() + "eco_local_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

EnvOptions FastEnvOptions(const std::string& workdir) {
  EnvOptions options;
  options.workdir = workdir;
  options.runner.target_seconds = 60.0;
  return options;
}

const std::vector<Configuration> kSmallSweep = {
    {8, 1, kHz(2'200'000)},  {8, 2, kHz(2'200'000)},
    {32, 1, kHz(1'500'000)}, {32, 1, kHz(2'200'000)},
    {32, 2, kHz(2'200'000)}, {32, 1, kHz(2'500'000)},
    {32, 2, kHz(2'500'000)},
};

// Forwards to an EtcStorage and counts the calls the settings path makes.
class CountingStorage : public LocalStorageInterface {
 public:
  explicit CountingStorage(const std::string& root)
      : inner_(std::make_shared<EtcStorage>(root)) {}

  Result<Json> LoadSettings() override {
    ++loads;
    return inner_->LoadSettings();
  }
  Status SaveSettings(const Json& settings) override {
    return inner_->SaveSettings(settings);
  }
  Result<FileIdentity> SettingsIdentity() override {
    ++stats;
    return inner_->SettingsIdentity();
  }
  [[nodiscard]] std::string ResolvePath(const std::string& name) const override {
    return inner_->ResolvePath(name);
  }
  Status WriteFile(const std::string& name, const std::string& data) override {
    return inner_->WriteFile(name, data);
  }
  Result<std::string> ReadFile(const std::string& name) override {
    return inner_->ReadFile(name);
  }

  int loads = 0;
  int stats = 0;

 private:
  std::shared_ptr<EtcStorage> inner_;
};

// ------------------------------------------------------- settings identity

TEST(LocalState, EverySaveMovesTheIdentityAndLeavesNoTempFile) {
  const std::string dir = FreshDir("etc");
  EtcStorage storage(dir);
  EXPECT_EQ(*storage.SettingsIdentity(), FileIdentity{});  // missing
  JsonObject settings;
  settings["state"] = "active";
  ASSERT_TRUE(storage.SaveSettings(Json(settings)).ok());
  const FileIdentity first = *storage.SettingsIdentity();
  EXPECT_NE(first, FileIdentity{});
  // The same bytes again: the rename still gives the file a new inode.
  ASSERT_TRUE(storage.SaveSettings(Json(settings)).ok());
  const FileIdentity second = *storage.SettingsIdentity();
  EXPECT_NE(first.ino, second.ino);
  EXPECT_EQ(first.size, second.size);

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"settings.json"});
}

TEST(LocalState, SteadyStateGetStateOnlyStats) {
  const std::string dir = FreshDir("etc");
  auto counting = std::make_shared<CountingStorage>(dir);
  SettingsService reader(counting);
  EXPECT_EQ(reader.GetState(), PluginState::kUser);  // fresh install default
  for (int i = 0; i < 1000; ++i) reader.GetState();
  EXPECT_EQ(counting->loads, 1);
  EXPECT_EQ(counting->stats, 1001);

  // A writer with its own storage object (another process, as far as the
  // reader can tell) is seen on the next call, with no hook between them.
  SettingsService writer(std::make_shared<EtcStorage>(dir));
  ASSERT_TRUE(writer.SetState(PluginState::kActive).ok());
  EXPECT_EQ(reader.GetState(), PluginState::kActive);
  EXPECT_EQ(counting->loads, 2);
  ASSERT_TRUE(writer.SetDatabasePath("/srv/chronus/data.db").ok());
  EXPECT_EQ(*reader.GetDatabasePath(), "/srv/chronus/data.db");
  EXPECT_EQ(reader.GetState(), PluginState::kActive);
  EXPECT_EQ(counting->loads, 3);
}

// One writer toggles active/deactivated while four readers share a second
// service over the same directory. kUser is what a parse failure (a torn
// file) would return, so it must never be seen. Runs under TSan too.
TEST(LocalState, ConcurrentReadersNeverSeeATornFile) {
  const std::string dir = FreshDir("etc");
  SettingsService writer(std::make_shared<EtcStorage>(dir));
  ASSERT_TRUE(writer.SetState(PluginState::kActive).ok());
  SettingsService reader(std::make_shared<EtcStorage>(dir));

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<long> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        if (reader.GetState() == PluginState::kUser) ++torn;
        ++reads;
      } while (!done.load());
    });
  }
  for (int i = 0; i <= 200; ++i) {
    ASSERT_TRUE(writer
                    .SetState(i % 2 == 0 ? PluginState::kDeactivated
                                         : PluginState::kActive)
                    .ok());
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0);
  // The last save, unlike the state the readers started from.
  EXPECT_EQ(reader.GetState(), PluginState::kDeactivated);
}

// ------------------------------------------------ private in-memory envs

TEST(LocalState, WorkdirLessEnvsHavePrivateDirectories) {
  Logger::Instance().SetLevel(LogLevel::kWarn);
  std::string etc_a;
  std::string blobs_a;
  {
    // Same model id (1) in both in-memory repositories: with a shared etc
    // dir, B's pre-load would overwrite A's model file.
    ChronusEnv a = MakeSimEnv(FastEnvOptions(""));
    ChronusEnv b = MakeSimEnv(FastEnvOptions(""));
    ASSERT_TRUE(
        RunFullPipeline(a, {{16, 1, kHz(2'200'000)}}, "brute-force").ok());
    ASSERT_TRUE(
        RunFullPipeline(b, {{32, 1, kHz(2'200'000)}}, "brute-force").ok());
    a.slurm_config->ClearCache();
    const std::string system_hash = a.gateway->system_hash();
    const auto best_a = a.slurm_config->Predict(system_hash,
                                                a.runner->binary_hash());
    const auto best_b = b.slurm_config->Predict(system_hash,
                                                b.runner->binary_hash());
    ASSERT_TRUE(best_a.ok()) << best_a.message();
    ASSERT_TRUE(best_b.ok()) << best_b.message();
    EXPECT_EQ(best_a->cores, 16);
    EXPECT_EQ(best_b->cores, 32);

    etc_a = a.local->ResolvePath("");
    auto blob = a.repository->GetModelMeta(1);
    ASSERT_TRUE(blob.ok());
    blobs_a = fs::path(blob->blob_path).parent_path().string();
    EXPECT_NE(etc_a, b.local->ResolvePath(""));
    EXPECT_TRUE(fs::exists(etc_a));
    EXPECT_TRUE(fs::exists(blobs_a));
  }
  // Destroying the env removes both of its directories.
  EXPECT_FALSE(fs::exists(etc_a));
  EXPECT_FALSE(fs::exists(blobs_a));
  Logger::Instance().SetLevel(LogLevel::kInfo);
}

// ----------------------------------------------------------- model image

class ModelImageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Instance().SetLevel(LogLevel::kError);
    env_ = MakeSimEnv(FastEnvOptions(FreshDir("image")));
    const auto meta = RunFullPipeline(env_, kSmallSweep, "random-tree");
    ASSERT_TRUE(meta.ok()) << meta.message();
    system_hash_ = env_.gateway->system_hash();
    binary_hash_ = env_.runner->binary_hash();
    stem_ = "preloaded-model-" + std::to_string(meta->id);
    image_ = *env_.local->ReadFile(stem_ + ".img");
    json_ = *Json::Parse(*env_.local->ReadFile(stem_ + ".json"));
    // The answer the JSON file alone gives: no image entry in settings.
    JsonObject root = env_.local->LoadSettings()->as_object();
    const Json with_image(root);
    root.erase("preloaded_images");
    ASSERT_TRUE(env_.local->SaveSettings(Json(root)).ok());
    SlurmConfigService json_only(env_.local);
    const auto best = json_only.Predict(system_hash_, binary_hash_);
    ASSERT_TRUE(best.ok()) << best.message();
    json_best_ = *best;
    ASSERT_TRUE(env_.local->SaveSettings(with_image).ok());
  }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }

  // Predicts with a fresh service (no in-memory model) after replacing the
  // image file's bytes.
  Result<Configuration> PredictWithImage(const std::string& bytes) {
    EXPECT_TRUE(env_.local->WriteFile(stem_ + ".img", bytes).ok());
    SlurmConfigService service(env_.local);
    return service.Predict(system_hash_, binary_hash_);
  }

  ChronusEnv env_;
  std::string system_hash_;
  std::string binary_hash_;
  std::string stem_;
  std::string image_;
  Json json_;
  Configuration json_best_;
};

std::string ForestBytes(const ml::RandomForest& forest) {
  std::string out;
  forest.AppendImage(&out);
  return out;
}

TEST_F(ModelImageTest, ImageForestIsBitwiseTheJsonForest) {
  auto image = DecodeModelImage(image_);
  ASSERT_TRUE(image.ok()) << image.message();
  auto from_json = ml::RandomForest::FromJson(json_.at("model").at("payload"));
  ASSERT_TRUE(from_json.ok());
  EXPECT_EQ(image->forest.tree_count(), 50u);
  // AppendImage writes every node field and parameter as raw bytes, so
  // equal images are node-by-node bitwise equal forests.
  EXPECT_EQ(ForestBytes(image->forest), ForestBytes(*from_json));
  EXPECT_EQ(image->forest.ToJson().Dump(), from_json->ToJson().Dump());
  EXPECT_EQ(image->system_hash, system_hash_);
  EXPECT_EQ(image->binary_hash, binary_hash_);
  std::vector<Configuration> candidates;
  for (const auto& c : json_.at("candidates").as_array()) {
    candidates.push_back(*Configuration::FromJson(c));
  }
  EXPECT_EQ(image->candidates, candidates);
}

TEST_F(ModelImageTest, PredictionsAreBitwiseTheJsonPath) {
  auto image = DecodeModelImage(image_);
  ASSERT_TRUE(image.ok()) << image.message();
  RandomForestOptimizer from_image;
  from_image.Adopt(std::move(image->forest));
  auto from_json = ModelFactory::Unpack(json_.at("model"));
  ASSERT_TRUE(from_json.ok());

  std::vector<Configuration> rows = image->candidates;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({1 + static_cast<int>(rng.NextBounded(64)),
                    1 + static_cast<int>(rng.NextBounded(2)),
                    kHz(1'000'000 + rng.NextBounded(2'000'000))});
  }
  std::vector<double> a, b;
  std::vector<bool> scored_a, scored_b;
  ASSERT_TRUE(from_image.PredictBatch(rows, &a, &scored_a).ok());
  ASSERT_TRUE((*from_json)->PredictBatch(rows, &b, &scored_b).ok());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(scored_a, scored_b);
  for (std::size_t i = 0; i < rows.size(); i += 97) {
    const double x = *from_image.Predict(rows[i]);
    const double y = *(*from_json)->Predict(rows[i]);
    EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0) << i;
  }
  EXPECT_EQ(*from_image.BestConfiguration(image->candidates),
            *(*from_json)->BestConfiguration(image->candidates));
  EXPECT_EQ(*from_image.BestConfiguration(image->candidates), json_best_);
}

TEST_F(ModelImageTest, SlurmConfigReadsTheImageFirst) {
  // With the JSON file unreadable, only the image can answer.
  ASSERT_TRUE(env_.local->WriteFile(stem_ + ".json", "not json").ok());
  const auto best = PredictWithImage(image_);
  ASSERT_TRUE(best.ok()) << best.message();
  EXPECT_EQ(*best, json_best_);
}

TEST_F(ModelImageTest, RejectedImageFallsBackToTheJsonFile) {
  auto decoded = DecodeModelImage(image_);
  ASSERT_TRUE(decoded.ok());
  std::string bad_magic = image_;
  bad_magic[0] = 'X';
  const std::vector<std::string> rejected = {
      bad_magic,
      image_.substr(0, image_.size() / 2),
      image_ + "x",
      "",
      EncodeModelImage("other-system", binary_hash_, decoded->candidates,
                       decoded->forest),
      EncodeModelImage(system_hash_, "other-binary", decoded->candidates,
                       decoded->forest),
  };
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    const auto best = PredictWithImage(rejected[i]);
    ASSERT_TRUE(best.ok()) << i << ": " << best.message();
    EXPECT_EQ(*best, json_best_) << i;
  }
  // A missing image file falls back the same way.
  fs::remove(env_.local->ResolvePath(stem_ + ".img"));
  SlurmConfigService service(env_.local);
  EXPECT_EQ(*service.Predict(system_hash_, binary_hash_), json_best_);
}

TEST_F(ModelImageTest, NonForestModelDropsTheStaleImageEntry) {
  // Re-pre-loading the key with a brute-force model must not leave the old
  // random-tree image answering for it.
  auto meta = env_.init_model->Run("brute-force",
                                   env_.benchmark->last_system_id(), 2.0);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(env_.load_model->Run(meta->id).ok());
  const Json images = env_.local->LoadSettings()->at("preloaded_images");
  EXPECT_TRUE(images.as_object().empty());
}

// ---------------------------------------------- image robustness (small)

// A 3-tree forest keeps every-offset truncation cheap.
std::string SmallImage() {
  ml::Dataset data;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    data.Add({a, b, a * b}, a - b + 0.1 * rng.Uniform(-1, 1));
  }
  ml::ForestParams params;
  params.trees = 3;
  params.tree.max_depth = 3;
  ml::RandomForest forest(params);
  EXPECT_TRUE(forest.Fit(data).ok());
  return EncodeModelImage("sys", "bin",
                          {{8, 1, kHz(2'200'000)}, {32, 2, kHz(2'500'000)}},
                          forest);
}

std::uint32_t ReadU32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void WriteU32(std::string* bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

// Offsets of the image's fields, walked from the layout in model_image.hpp
// and DESIGN.md.
struct Layout {
  std::vector<std::size_t> counts;  // every u32 count or root field
  std::size_t tree_table = 0;
  std::uint32_t trees = 0;
  std::size_t arrays = 0;  // first byte of the feature array
  std::uint32_t nodes = 0;
};

Layout Walk(const std::string& image) {
  Layout l;
  std::size_t at = 16;
  l.counts.push_back(at);  // system hash length
  at += 4 + ReadU32(image, at);
  l.counts.push_back(at);  // binary hash length
  at += 4 + ReadU32(image, at);
  l.counts.push_back(at);  // candidate count
  at += 4 + 16 * static_cast<std::size_t>(ReadU32(image, at));
  at += 4 + 8 + 8 + 8;     // trees requested, seed, bootstrap, oob
  l.counts.push_back(at);  // tree count
  l.trees = ReadU32(image, at);
  l.tree_table = at + 4;
  for (std::uint32_t t = 0; t < l.trees; ++t) {
    l.counts.push_back(l.tree_table + 24 * t + 16);  // root
    l.counts.push_back(l.tree_table + 24 * t + 20);  // node count
  }
  at = l.tree_table + 24 * static_cast<std::size_t>(l.trees);
  l.counts.push_back(at);  // total nodes
  l.nodes = ReadU32(image, at);
  l.arrays = at + 4;
  return l;
}

// Decodes `bytes`, recording the largest allocation made on the way.
bool Rejected(const std::string& bytes, std::size_t* largest) {
  g_largest_alloc = 0;
  const bool rejected = !DecodeModelImage(bytes).ok();
  *largest = g_largest_alloc.load();
  return rejected;
}

// Node is 32 bytes in memory against 28 on disk, so a decode may allocate
// a little more than the image holds, but never more than this.
constexpr std::size_t kAllocBound = 2;

TEST(ModelImageRobustness, RejectsEveryTruncation) {
  const std::string image = SmallImage();
  ASSERT_TRUE(DecodeModelImage(image).ok());
  for (std::size_t n = 0; n < image.size(); ++n) {
    std::size_t largest = 0;
    EXPECT_TRUE(Rejected(image.substr(0, n), &largest)) << n;
    EXPECT_LE(largest, kAllocBound * image.size() + 64) << n;
  }
}

TEST(ModelImageRobustness, RejectsEverySkewedCount) {
  const std::string image = SmallImage();
  const Layout layout = Walk(image);
  ASSERT_EQ(layout.arrays + 28 * static_cast<std::size_t>(layout.nodes),
            image.size());
  for (const std::size_t at : layout.counts) {
    const std::uint32_t v = ReadU32(image, at);
    for (const std::uint32_t skewed : {v - 1, v + 1, 1u << 31}) {
      std::string bad = image;
      WriteU32(&bad, at, skewed);
      std::size_t largest = 0;
      EXPECT_TRUE(Rejected(bad, &largest)) << "field at " << at << " = " << skewed;
      EXPECT_LE(largest, kAllocBound * image.size() + 64) << at;
    }
  }
}

TEST(ModelImageRobustness, RejectsBadHeaderTopologyAndFeatures) {
  const std::string image = SmallImage();
  const Layout layout = Walk(image);
  const std::size_t n = layout.nodes;
  const std::size_t feature = layout.arrays;
  const std::size_t left = feature + n * (4 + 8 + 8);
  const auto mutated = [&](std::size_t at, std::uint32_t v) {
    std::string bad = image;
    WriteU32(&bad, at, v);
    return bad;
  };
  // Node 0 of tree 0 is a split (depth-3 trees on 40 rows).
  ASSERT_GE(static_cast<std::int32_t>(ReadU32(image, feature)), 0);
  const std::uint32_t tree0_nodes = ReadU32(image, layout.tree_table + 20);
  std::string bad_magic = image;
  bad_magic[7] = '?';
  const std::vector<std::string> bad = {
      bad_magic,
      image + std::string(1, '\0'),                          // trailing byte
      mutated(8, kModelImageVersion + 1),                     // version
      mutated(12, 2),                                         // model type
      mutated(left, tree0_nodes),                             // child past the tree
      mutated(left, static_cast<std::uint32_t>(-5)),          // negative child
      mutated(left, 0),                                       // child back to root
      mutated(layout.tree_table + 16, layout.nodes),          // root past the arrays
      mutated(feature, 32768),                                // feature above int16
      mutated(feature, static_cast<std::uint32_t>(-2)),       // feature below -1
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    std::size_t largest = 0;
    EXPECT_TRUE(Rejected(bad[i], &largest)) << i;
  }
}

}  // namespace
}  // namespace eco::chronus
