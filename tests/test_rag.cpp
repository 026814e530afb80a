// Unit tests for rag: tokenizer, corpus generation, encoders, indexes
// (exact vs IVF vs HNSW recall), generator, end-to-end pipeline, and the
// serving front end (dynamic batching, caches, deadlines).
#include <gtest/gtest.h>

#include <thread>

#include "gpusim/device_manager.hpp"
#include "rag/cache.hpp"
#include "rag/hnsw.hpp"
#include "rag/pipeline.hpp"
#include "rag/server.hpp"

namespace rag = sagesim::rag;
namespace gpu = sagesim::gpu;
using sagesim::stats::Rng;

// --- tokenizer -----------------------------------------------------------------

TEST(Tokenizer, LowercasesAndSplits) {
  const auto t = rag::tokenize("Hello, World! GPU-programming 101");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], "hello");
  EXPECT_EQ(t[1], "world");
  EXPECT_EQ(t[2], "gpu");
  EXPECT_EQ(t[4], "101");
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(rag::tokenize("").empty());
  EXPECT_TRUE(rag::tokenize("!!! ---").empty());
}

TEST(Vocabulary, AddAndLookup) {
  rag::Vocabulary v;
  const auto id = v.add("gpu");
  EXPECT_EQ(v.add("gpu"), id);  // idempotent
  EXPECT_EQ(v.id_of("gpu"), id);
  EXPECT_EQ(v.id_of("missing"), rag::Vocabulary::kUnk);
  EXPECT_EQ(v.word_of(id), "gpu");
  EXPECT_THROW(v.word_of(9999), std::out_of_range);
  EXPECT_EQ(v.size(), 2u);  // <unk> + gpu
}

// --- corpus --------------------------------------------------------------------

TEST(Corpus, AddAndRetrieve) {
  rag::Corpus c;
  const auto id = c.add("hello world", 3);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.doc(id).topic, 3);
  EXPECT_THROW(c.doc(5), std::out_of_range);
}

TEST(SyntheticCorpus, DocumentsCarryTopicVocabulary) {
  Rng rng(1);
  rag::SyntheticCorpusParams p;
  p.num_docs = 50;
  p.num_topics = 5;
  const auto synth = rag::synthetic_corpus(p, rng);
  EXPECT_EQ(synth.corpus.size(), 50u);
  for (const auto& doc : synth.corpus.docs()) {
    EXPECT_GE(doc.topic, 0);
    EXPECT_LT(doc.topic, 5);
    EXPECT_EQ(rag::tokenize(doc.text).size(), p.doc_length);
  }
}

TEST(SyntheticCorpus, QueryUsesTopicWords) {
  Rng rng(2);
  rag::SyntheticCorpusParams p;
  const auto q = rag::synthetic_query(p, 2, rng);
  for (const auto& tok : rag::tokenize(q)) {
    const auto idx = std::stoul(tok.substr(2));
    EXPECT_GE(idx, 2u * p.words_per_topic);
    EXPECT_LT(idx, 3u * p.words_per_topic);
  }
  EXPECT_THROW(rag::synthetic_query(p, 99, rng), std::invalid_argument);
}

// --- encoder --------------------------------------------------------------------

TEST(TfIdfEncoder, VectorsAreNormalized) {
  Rng rng(3);
  rag::SyntheticCorpusParams p;
  p.num_docs = 30;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::TfIdfEncoder enc(64);
  enc.fit(synth.corpus);
  const auto v = enc.encode(synth.corpus.doc(0).text);
  EXPECT_NEAR(v.norm(), 1.0f, 1e-5f);
  EXPECT_EQ(v.cols(), 64u);
}

TEST(TfIdfEncoder, SameTopicDocsAreCloser) {
  Rng rng(4);
  rag::SyntheticCorpusParams p;
  p.num_docs = 200;
  p.num_topics = 4;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::TfIdfEncoder enc(128);
  enc.fit(synth.corpus);

  auto dot = [](const sagesim::tensor::Tensor& a,
                const sagesim::tensor::Tensor& b) {
    float s = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };

  // Average same-topic vs cross-topic similarity over a few pairs.
  double same = 0.0, cross = 0.0;
  int same_n = 0, cross_n = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = i + 1; j < 30; ++j) {
      const auto vi = enc.encode(synth.corpus.doc(i).text);
      const auto vj = enc.encode(synth.corpus.doc(j).text);
      if (synth.corpus.doc(i).topic == synth.corpus.doc(j).topic) {
        same += dot(vi, vj);
        ++same_n;
      } else {
        cross += dot(vi, vj);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same / same_n, cross / cross_n + 0.1);
}

TEST(TfIdfEncoder, RequiresFit) {
  rag::TfIdfEncoder enc(32);
  EXPECT_THROW(enc.encode("hello"), std::logic_error);
  EXPECT_THROW(rag::TfIdfEncoder(0), std::invalid_argument);
}

// --- indexes --------------------------------------------------------------------

namespace {

struct IndexFixture : ::testing::Test {
  Rng rng{5};
  rag::SyntheticCorpusParams params;
  rag::SyntheticCorpus synth;
  rag::TfIdfEncoder enc{512};
  sagesim::tensor::Tensor vectors{1, 1};

  IndexFixture() {
    params.num_docs = 300;
    params.num_topics = 10;
    synth = rag::synthetic_corpus(params, rng);
    enc.fit(synth.corpus);
    vectors = enc.encode_corpus(synth.corpus);
  }
};

}  // namespace

TEST_F(IndexFixture, BruteForceTopHitIsOnTopic) {
  rag::BruteForceIndex index(512);
  index.add(vectors);
  EXPECT_EQ(index.size(), 300u);
  int hits = 0;
  for (int t = 0; t < 10; ++t) {
    const auto q = enc.encode(rag::synthetic_query(params, t, rng));
    const auto res = index.search(nullptr, q, 5).value();
    ASSERT_EQ(res.size(), 1u);
    ASSERT_EQ(res[0].size(), 5u);
    if (synth.corpus.doc(res[0][0].id).topic == t) ++hits;
    // Scores descend.
    for (std::size_t i = 1; i < res[0].size(); ++i)
      EXPECT_GE(res[0][i - 1].score, res[0][i].score);
  }
  EXPECT_GE(hits, 9);
}

TEST_F(IndexFixture, BruteForceDeviceMatchesHost) {
  rag::BruteForceIndex index(512);
  index.add(vectors);
  const auto q = enc.encode(rag::synthetic_query(params, 3, rng));
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  const auto host = index.search(nullptr, q, 10).value();
  const auto dev = index.search(&dm.device(0), q, 10).value();
  ASSERT_EQ(host[0].size(), dev[0].size());
  for (std::size_t i = 0; i < host[0].size(); ++i)
    EXPECT_EQ(host[0][i].id, dev[0][i].id);
}

TEST_F(IndexFixture, IvfRequiresTraining) {
  rag::IvfFlatIndex index(512, 8, 2);
  EXPECT_THROW(index.add(vectors), std::logic_error);
  index.train(nullptr, vectors);
  EXPECT_TRUE(index.trained());
  index.add(vectors);
  EXPECT_EQ(index.size(), 300u);
}

TEST_F(IndexFixture, IvfRecallHighWithEnoughProbes) {
  rag::BruteForceIndex exact(512);
  exact.add(vectors);
  rag::IvfFlatIndex ivf(512, 10, 10);  // probe everything -> exact
  ivf.train(nullptr, vectors);
  ivf.add(vectors);

  sagesim::tensor::Tensor queries(5, 512);
  for (int t = 0; t < 5; ++t) {
    const auto q = enc.encode(rag::synthetic_query(params, t, rng));
    std::copy(q.data(), q.data() + 512, queries.data() + t * 512);
  }
  const auto gt = exact.search(nullptr, queries, 10).value();
  const auto approx = ivf.search(nullptr, queries, 10).value();
  EXPECT_NEAR(rag::recall_at_k(gt, approx), 1.0, 1e-9);

  // Fewer probes: recall may drop but should stay useful.
  ivf.set_nprobe(2);
  const auto approx2 = ivf.search(nullptr, queries, 10).value();
  EXPECT_GE(rag::recall_at_k(gt, approx2), 0.5);
}

TEST_F(IndexFixture, IvfValidatesParameters) {
  EXPECT_THROW(rag::IvfFlatIndex(512, 0, 1), std::invalid_argument);
  EXPECT_THROW(rag::IvfFlatIndex(512, 4, 5), std::invalid_argument);
  rag::IvfFlatIndex index(512, 8, 2);
  sagesim::tensor::Tensor tiny(4, 512);
  EXPECT_THROW(index.train(nullptr, tiny), std::invalid_argument);
  index.train(nullptr, vectors);
  EXPECT_THROW(index.set_nprobe(0), std::invalid_argument);
}

TEST_F(IndexFixture, SearchValidatesInputs) {
  // Operational misuse comes back as a Status, never an exception and never
  // a silent clamp.
  rag::BruteForceIndex index(512);
  sagesim::tensor::Tensor q(1, 512);
  EXPECT_EQ(index.search(nullptr, q, 5).status().code(),
            sagesim::ErrorCode::kFailedPrecondition);  // empty index
  index.add(vectors);
  EXPECT_EQ(index.search(nullptr, q, 0).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
  sagesim::tensor::Tensor wrong(1, 64);
  EXPECT_EQ(index.search(nullptr, wrong, 5).status().code(),
            sagesim::ErrorCode::kInvalidArgument);  // dim mismatch
  EXPECT_EQ(index.search(nullptr, q, index.size() + 1).status().code(),
            sagesim::ErrorCode::kInvalidArgument);  // k > size(): no clamp
  EXPECT_TRUE(index.search(nullptr, q, index.size()));
}

TEST_F(IndexFixture, IvfSearchValidatesLikeBruteForce) {
  rag::IvfFlatIndex index(512, 8, 2);
  sagesim::tensor::Tensor q(1, 512);
  // Untrained is reported before anything else.
  EXPECT_EQ(index.search(nullptr, q, 5).status().code(),
            sagesim::ErrorCode::kFailedPrecondition);
  index.train(nullptr, vectors);
  index.add(vectors);
  sagesim::tensor::Tensor wrong(1, 64);
  EXPECT_EQ(index.search(nullptr, wrong, 5).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
  EXPECT_EQ(index.search(nullptr, q, index.size() + 1).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
}

TEST(RecallAtK, ComputesFraction) {
  std::vector<std::vector<rag::SearchHit>> exact{{{1, 1.0f}, {2, 0.9f}}};
  std::vector<std::vector<rag::SearchHit>> approx{{{1, 1.0f}, {9, 0.8f}}};
  EXPECT_NEAR(rag::recall_at_k(exact, approx), 0.5, 1e-12);
  EXPECT_THROW(rag::recall_at_k(exact, {}), std::invalid_argument);
}

// --- generator -------------------------------------------------------------------

TEST(Generator, FitAndGenerateDeterministic) {
  Rng rng(6);
  rag::SyntheticCorpusParams p;
  p.num_docs = 100;
  const auto synth = rag::synthetic_corpus(p, rng);

  rag::GeneratorConfig cfg;
  cfg.max_tokens = 10;
  cfg.seed = 42;
  rag::BigramGenerator g1(cfg), g2(cfg);
  g1.fit(synth.corpus);
  g2.fit(synth.corpus);
  const auto t1 = g1.generate("wd0 wd1", {});
  const auto t2 = g2.generate("wd0 wd1", {});
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(rag::tokenize(t1).size(), 10u);
}

TEST(Generator, RetrievalConditioningShiftsVocabulary) {
  Rng rng(7);
  rag::SyntheticCorpusParams p;
  p.num_docs = 200;
  p.num_topics = 4;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::GeneratorConfig cfg;
  cfg.max_tokens = 40;
  cfg.retrieval_boost = 50.0;
  rag::BigramGenerator gen(cfg);
  gen.fit(synth.corpus);

  // Context: documents of topic 1 only.
  std::vector<std::string> context;
  for (const auto& d : synth.corpus.docs())
    if (d.topic == 1 && context.size() < 4) context.push_back(d.text);

  const auto out = gen.generate("wd999999", context);
  int on_topic = 0, total = 0;
  for (const auto& tok : rag::tokenize(out)) {
    ++total;
    const auto idx = std::stoul(tok.substr(2));
    if (idx >= p.words_per_topic && idx < 2 * p.words_per_topic) ++on_topic;
  }
  EXPECT_GT(on_topic * 2, total);  // majority from topic 1's lexicon
}

TEST(Generator, PerplexityLowerOnInDistributionText) {
  Rng rng(8);
  rag::SyntheticCorpusParams p;
  p.num_docs = 150;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::BigramGenerator gen;
  gen.fit(synth.corpus);
  const double in_dist = gen.perplexity(synth.corpus.doc(0).text);
  const double gibberish = gen.perplexity("zz yy xx qq pp oo nn mm");
  EXPECT_LT(in_dist, gibberish);
}

TEST(Generator, RequiresFitAndValidInput) {
  rag::BigramGenerator gen;
  EXPECT_THROW(gen.generate("x", {}), std::logic_error);
  EXPECT_THROW(gen.perplexity("x"), std::logic_error);
  rag::GeneratorConfig bad;
  bad.temperature = 0.0;
  EXPECT_THROW(rag::BigramGenerator{bad}, std::invalid_argument);
}

// --- pipeline --------------------------------------------------------------------

TEST(Pipeline, EndToEndAnswersWithLatencyBreakdown) {
  Rng rng(9);
  rag::SyntheticCorpusParams p;
  p.num_docs = 200;
  const auto synth = rag::synthetic_corpus(p, rng);
  gpu::DeviceManager dm(1, gpu::spec::t4());

  rag::RagConfig cfg;
  cfg.embed_dim = 128;
  cfg.top_k = 3;
  rag::RagPipeline pipeline(synth.corpus,
                            std::make_unique<rag::BruteForceIndex>(128),
                            &dm.device(0), cfg);
  const auto a = pipeline.answer(rag::synthetic_query(p, 2, rng)).value();
  EXPECT_EQ(a.retrieved.size(), 3u);
  EXPECT_FALSE(a.text.empty());
  EXPECT_GT(a.encode_s, 0.0);
  EXPECT_GT(a.retrieve_s, 0.0);
  EXPECT_GT(a.generate_s, 0.0);
  EXPECT_NEAR(a.total_s(), a.encode_s + a.retrieve_s + a.generate_s, 1e-15);
}

TEST(Pipeline, BatchingAmortizesRetrieval) {
  Rng rng(10);
  rag::SyntheticCorpusParams p;
  p.num_docs = 400;
  const auto synth = rag::synthetic_corpus(p, rng);
  gpu::DeviceManager dm(1, gpu::spec::t4());
  rag::RagConfig cfg;
  cfg.embed_dim = 128;
  rag::RagPipeline pipeline(synth.corpus,
                            std::make_unique<rag::BruteForceIndex>(128),
                            &dm.device(0), cfg);
  const auto single = pipeline.answer(rag::synthetic_query(p, 0, rng)).value();
  std::vector<std::string> queries;
  for (int i = 0; i < 16; ++i)
    queries.push_back(rag::synthetic_query(p, i % p.num_topics, rng));
  const auto batched = pipeline.answer_batch(queries).value();
  ASSERT_EQ(batched.size(), 16u);
  EXPECT_LT(batched[0].retrieve_s, single.retrieve_s);
}

TEST(Pipeline, ValidatesConstruction) {
  Rng rng(11);
  rag::SyntheticCorpusParams p;
  p.num_docs = 20;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::RagConfig cfg;
  cfg.embed_dim = 64;
  EXPECT_THROW(rag::RagPipeline(synth.corpus, nullptr, nullptr, cfg),
               std::invalid_argument);
  EXPECT_THROW(rag::RagPipeline(synth.corpus,
                                std::make_unique<rag::BruteForceIndex>(128),
                                nullptr, cfg),
               std::invalid_argument);  // dim mismatch
}

TEST(Pipeline, CpuFallbackWorks) {
  Rng rng(12);
  rag::SyntheticCorpusParams p;
  p.num_docs = 50;
  const auto synth = rag::synthetic_corpus(p, rng);
  rag::RagConfig cfg;
  cfg.embed_dim = 64;
  rag::RagPipeline pipeline(synth.corpus,
                            std::make_unique<rag::BruteForceIndex>(64),
                            nullptr, cfg);
  const auto a = pipeline.answer(rag::synthetic_query(p, 1, rng)).value();
  EXPECT_FALSE(a.text.empty());
  EXPECT_EQ(a.total_s(), 0.0);  // no device, no modeled time
}

// --- latency tracker -----------------------------------------------------------

#include "rag/latency.hpp"

TEST(LatencyTracker, PercentilesAndMean) {
  rag::LatencyTracker t;
  for (int i = 1; i <= 100; ++i) t.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(t.mean(), 50.5);
  EXPECT_NEAR(t.p50(), 50.5, 1e-9);
  EXPECT_NEAR(t.p99(), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(t.max(), 100.0);
  EXPECT_EQ(t.count(), 100u);
}

TEST(LatencyTracker, SloCheck) {
  rag::LatencyTracker t;
  for (int i = 0; i < 99; ++i) t.record(0.001);
  t.record(0.100);  // one slow outlier
  EXPECT_TRUE(t.meets_slo(95.0, 0.002));
  EXPECT_FALSE(t.meets_slo(100.0, 0.002));
}

TEST(LatencyTracker, Validation) {
  rag::LatencyTracker t;
  EXPECT_THROW(t.mean(), std::invalid_argument);
  EXPECT_THROW(t.record(-1.0), std::invalid_argument);
  t.record(1.0);
  EXPECT_THROW(t.percentile(101.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(t.percentile(50.0), 1.0);
}

TEST(LatencyTracker, TracksPipelineRequests) {
  Rng rng(30);
  rag::SyntheticCorpusParams p;
  p.num_docs = 100;
  const auto synth = rag::synthetic_corpus(p, rng);
  gpu::DeviceManager dm(1, gpu::spec::t4());
  rag::RagConfig cfg;
  cfg.embed_dim = 128;
  rag::RagPipeline pipeline(synth.corpus,
                            std::make_unique<rag::BruteForceIndex>(128),
                            &dm.device(0), cfg);
  rag::LatencyTracker tracker;
  for (int i = 0; i < 10; ++i)
    tracker.record(
        pipeline.answer(rag::synthetic_query(p, i % p.num_topics, rng))
            .value()
            .total_s());
  EXPECT_EQ(tracker.count(), 10u);
  EXPECT_GT(tracker.p95(), 0.0);
  EXPECT_FALSE(tracker.summary().empty());
}

// --- HNSW ----------------------------------------------------------------

TEST_F(IndexFixture, HnswRecallMatchesBruteForce) {
  rag::BruteForceIndex exact(512);
  exact.add(vectors);
  rag::HnswIndex hnsw(512);
  hnsw.add(vectors);
  EXPECT_EQ(hnsw.size(), 300u);
  EXPECT_EQ(hnsw.dim(), 512u);

  sagesim::tensor::Tensor queries(10, 512);
  for (int t = 0; t < 10; ++t) {
    const auto q = enc.encode(rag::synthetic_query(params, t, rng));
    std::copy(q.data(), q.data() + 512,
              queries.data() + static_cast<std::size_t>(t) * 512);
  }
  const auto gt = exact.search(nullptr, queries, 10).value();
  const auto approx = hnsw.search(nullptr, queries, 10).value();
  EXPECT_GE(rag::recall_at_k(gt, approx), 0.95);
}

TEST_F(IndexFixture, HnswSearchIsDeterministic) {
  rag::HnswIndex a(512), b(512);
  a.add(vectors);
  b.add(vectors);
  const auto q = enc.encode(rag::synthetic_query(params, 4, rng));
  const auto r1 = a.search(nullptr, q, 8).value();
  const auto r2 = a.search(nullptr, q, 8).value();
  const auto r3 = b.search(nullptr, q, 8).value();
  EXPECT_EQ(r1, r2);  // same index, repeated query
  EXPECT_EQ(r1, r3);  // independently built twin (same seed)
}

TEST_F(IndexFixture, HnswSpansMultipleShards) {
  rag::HnswParams hp;
  hp.shard_capacity = 64;  // 300 vectors -> 5 Buffer shards
  rag::HnswIndex sharded(512, hp);
  sharded.add(vectors);
  rag::HnswIndex flat(512);
  flat.add(vectors);
  const auto q = enc.encode(rag::synthetic_query(params, 7, rng));
  EXPECT_EQ(sharded.search(nullptr, q, 10).value(),
            flat.search(nullptr, q, 10).value());
}

TEST_F(IndexFixture, HnswValidatesInputs) {
  rag::HnswIndex index(512);
  sagesim::tensor::Tensor q(1, 512);
  EXPECT_EQ(index.search(nullptr, q, 5).status().code(),
            sagesim::ErrorCode::kFailedPrecondition);  // empty
  index.add(vectors);
  sagesim::tensor::Tensor wrong(1, 64);
  EXPECT_EQ(index.search(nullptr, wrong, 5).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
  EXPECT_EQ(index.search(nullptr, q, 0).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
  EXPECT_EQ(index.search(nullptr, q, index.size() + 1).status().code(),
            sagesim::ErrorCode::kInvalidArgument);
}

TEST_F(IndexFixture, HnswTunerRecordsEfMeetingRecall) {
  rag::BruteForceIndex exact(512);
  exact.add(vectors);
  rag::HnswIndex hnsw(512);
  hnsw.add(vectors);

  sagesim::tensor::Tensor queries(10, 512);
  for (int t = 0; t < 10; ++t) {
    const auto q = enc.encode(rag::synthetic_query(params, t, rng));
    std::copy(q.data(), q.data() + 512,
              queries.data() + static_cast<std::size_t>(t) * 512);
  }
  const auto truth = exact.search(nullptr, queries, 10).value();
  const std::size_t ef =
      rag::tune_hnsw_ef(hnsw, nullptr, queries, 10, truth, 0.95);
  ASSERT_GT(ef, 0u);
  // The caller applies the beam; a plain search then meets the target.
  hnsw.set_ef_search(ef);
  const auto tuned = hnsw.search(nullptr, queries, 10).value();
  EXPECT_GE(rag::recall_at_k(truth, tuned), 0.95);
  // No beam meets an unreachable target, and the index keeps its beam.
  EXPECT_EQ(rag::tune_hnsw_ef(hnsw, nullptr, queries, 10, truth, 1.01), 0u);
  EXPECT_EQ(hnsw.params().ef_search, ef);
}

// --- LRU cache -----------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  rag::LruCache<int, std::string> cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  ASSERT_TRUE(cache.get(1).has_value());  // 1 is now most recent
  cache.put(3, "three");                  // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), "one");
  EXPECT_EQ(cache.get(3).value(), "three");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCache, PutRefreshesExistingKey) {
  rag::LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // refresh, not insert
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCache, ZeroCapacityDisables) {
  rag::LruCache<int, int> cache(0);
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// --- server --------------------------------------------------------------

namespace {

struct ServerFixture : ::testing::Test {
  Rng rng{21};
  rag::SyntheticCorpusParams params;
  rag::SyntheticCorpus synth;
  rag::RagConfig cfg;

  ServerFixture() {
    params.num_docs = 200;
    params.num_topics = 10;
    synth = rag::synthetic_corpus(params, rng);
    cfg.embed_dim = 128;
    cfg.top_k = 3;
  }

  std::unique_ptr<rag::RagPipeline> make_pipeline() {
    return std::make_unique<rag::RagPipeline>(
        synth.corpus, std::make_unique<rag::BruteForceIndex>(cfg.embed_dim),
        nullptr, cfg);
  }

  std::vector<std::string> make_queries(int n) {
    std::vector<std::string> qs;
    qs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      qs.push_back(rag::synthetic_query(params, i % params.num_topics, rng));
    return qs;
  }
};

}  // namespace

TEST_F(ServerFixture, BatchedAndCachedAnswersAreBitIdenticalToSerial) {
  // Serial reference: one pipeline, one query at a time, no server.
  auto serial_pipeline = make_pipeline();
  auto queries = make_queries(12);
  // Repeat some queries so the result cache actually serves.
  queries.push_back(queries[0]);
  queries.push_back(queries[3]);
  std::vector<rag::RagAnswer> serial;
  for (const auto& q : queries)
    serial.push_back(serial_pipeline->answer(q).value());

  auto served_pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 5;
  opts.max_delay_us = 500;
  rag::Server server(*served_pipeline, opts);
  std::vector<sagesim::runtime::Future<rag::RagAnswer>> futures;
  futures.reserve(queries.size());
  for (const auto& q : queries) futures.push_back(server.submit(q));

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto got = futures[i].result();
    ASSERT_TRUE(got) << got.status().to_string();
    EXPECT_EQ(got->id, serial[i].id) << "query " << i;
    EXPECT_EQ(got->text, serial[i].text) << "query " << i;
    EXPECT_EQ(got->retrieved, serial[i].retrieved) << "query " << i;
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.largest_batch, 2u);
}

TEST_F(ServerFixture, ResultCacheServesExactRepeats) {
  auto pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 0;  // flush immediately
  rag::Server server(*pipeline, opts);
  const auto queries = make_queries(4);

  std::vector<rag::RagAnswer> first;
  for (const auto& q : queries) first.push_back(server.answer(q).value());
  // Identical repeats answer from the result cache, bit-identically.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto again = server.answer(queries[i]).value();
    EXPECT_EQ(again.text, first[i].text);
    EXPECT_EQ(again.retrieved, first[i].retrieved);
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.result_hits, queries.size());
  EXPECT_EQ(stats.result_misses, queries.size());
  EXPECT_EQ(stats.completed, 2 * queries.size());
  // Only the first pass reached a batch, and it encoded every query once.
  EXPECT_EQ(stats.embed_misses, queries.size());
  EXPECT_EQ(stats.embed_hits, 0u);
  EXPECT_EQ(stats.batched_queries, queries.size());
}

TEST_F(ServerFixture, EmbeddingCacheServesRepeatsWithResultCacheOff) {
  auto pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 0;
  opts.result_cache_entries = 0;  // every repeat goes through a batch
  rag::Server server(*pipeline, opts);
  const auto queries = make_queries(4);

  std::vector<rag::RagAnswer> first;
  for (const auto& q : queries) first.push_back(server.answer(q).value());
  // Repeats skip the encoder but still retrieve and generate, bit-identically.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto again = server.answer(queries[i]).value();
    EXPECT_EQ(again.text, first[i].text);
    EXPECT_EQ(again.retrieved, first[i].retrieved);
  }
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.embed_hits, queries.size());
  EXPECT_EQ(stats.embed_misses, queries.size());
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.batched_queries, 2 * queries.size());
  EXPECT_EQ(stats.completed, 2 * queries.size());
}

TEST_F(ServerFixture, CachesEvictAtCapacity) {
  auto pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 1;
  opts.max_delay_us = 0;
  opts.result_cache_entries = 2;
  opts.embed_cache_entries = 2;
  rag::Server server(*pipeline, opts);
  const auto queries = make_queries(5);  // distinct > capacity
  for (const auto& q : queries) ASSERT_TRUE(server.answer(q));
  // Oldest entries were evicted, so a repeat of the first query misses.
  ASSERT_TRUE(server.answer(queries[0]));
  server.stop();
  const auto stats = server.stats();
  EXPECT_GE(stats.result_evictions, 3u);
  EXPECT_GE(stats.embed_evictions, 3u);
  EXPECT_EQ(stats.result_hits, 0u);
}

TEST_F(ServerFixture, DeadlineExceededSurfacesAsRetryableStatus) {
  auto pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 64;         // never fills
  opts.max_delay_us = 20'000;  // hold the batch 20 ms
  opts.deadline_s = 1e-6;      // every queued request expires
  rag::Server server(*pipeline, opts);
  auto future = server.submit(make_queries(1)[0]);
  const auto got = future.result();
  ASSERT_FALSE(got);
  EXPECT_EQ(got.status().code(), sagesim::ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(got.status().retryable());
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(ServerFixture, ConcurrentSubmittersDrainCleanly) {
  auto pipeline = make_pipeline();
  rag::ServeOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 200;
  rag::Server server(*pipeline, opts);
  const auto queries = make_queries(10);

  constexpr int kThreads = 4, kPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto& q = queries[static_cast<std::size_t>(t * kPerThread + i) %
                                queries.size()];
        ASSERT_TRUE(server.answer(q));
      }
    });
  }
  for (auto& t : threads) t.join();
  server.drain();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.result_hits, 0u);  // repeats across threads hit the cache
  EXPECT_EQ(server.latency().count(), stats.completed);
}

TEST_F(ServerFixture, SubmitAfterStopFailsCleanly) {
  auto pipeline = make_pipeline();
  rag::Server server(*pipeline, rag::ServeOptions{});
  server.stop();
  const auto got = server.answer("too late");
  ASSERT_FALSE(got);
  EXPECT_EQ(got.status().code(), sagesim::ErrorCode::kFailedPrecondition);
}
