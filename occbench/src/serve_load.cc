/**
 * @file
 * serve_mixed, and the closed hot loop of the traced run: load against
 * occsim-serve's socket path (connectUnix / writeFrame / readFrame
 * against SweepServer::startUnix) over a corpus of 1M-reference
 * traces, with the corpus in its default behaviour.
 */

#include "serve_load.hh"

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "harness/experiment.hh"
#include "multi/sweep_api.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "util/random.hh"
#include "util/str.hh"
#include "workload/suites.hh"
#include "workloads.hh"

using namespace occsim;
using namespace occsim::serve;

namespace occbench {

namespace {

constexpr std::uint64_t kRefs = 1'000'000;
constexpr std::size_t kServeTraces = 4;
constexpr std::size_t kConfigsPerShape = 4;
/** serve_mixed arrival rate (req/s): about half of the 105-110 req/s
 *  at which this mix saturates the seed code on a 4-thread host (at
 *  90 req/s the backlog still drains; at 120 it grows). */
constexpr double kMixedRate = 50.0;
/** Share of fresh requests: an assumed mix, not a measured one, so
 *  fresh requests get a latency metric of their own. */
constexpr double kFreshShare = 0.15;
constexpr int kFreshPriority = 1;
/** Result-cache capacity: the 32 hot cells plus room for a fraction
 *  of the fresh cells a serve_mixed run inserts, so inserts evict. */
constexpr std::size_t kCacheCapacity = 96;
constexpr double kDrainSeconds = 20.0;

bool
hasType(const std::string &frame, const char *type)
{
    const std::string prefix = std::string("{\"type\":\"") + type + "\"";
    return frame.compare(0, prefix.size(), prefix) == 0;
}

/** One wire response being received. */
struct Response
{
    std::vector<std::string> results;  ///< frames kept for checking
    std::size_t resultCount = 0;
    bool error = false;
    bool done = false;
    double firstFrame = -1.0;
    double finished = -1.0;
};

/** Parse result frame @p frame into (config index, result). */
bool
parseResultFrame(const std::string &frame, std::size_t &index,
                 SweepResult &result)
{
    obs::JsonValue value;
    if (!obs::parseJson(frame, value))
        return false;
    const obs::JsonValue *config_index = value.find("config_index");
    const obs::JsonValue *body = value.find("result");
    if (config_index == nullptr || body == nullptr)
        return false;
    index = static_cast<std::size_t>(config_index->asU64());
    return parseResultJson(*body, result);
}

/** Fetch the server's "stats" reply over a fresh connection. */
ServeStats
wireStats(const ServeFixture &fixture)
{
    ServeStats stats;
    const int fd = connectUnix(fixture.socketPath);
    if (fd < 0)
        return stats;
    WireRequest request;
    request.op = "stats";
    std::string payload;
    if (writeFrame(fd, wireRequestJson(request)) &&
        readFrame(fd, payload) == FrameStatus::Ok) {
        obs::JsonValue value;
        if (obs::parseJson(payload, value)) {
            const auto u64 = [&](const char *key) -> std::uint64_t {
                const obs::JsonValue *v = value.find(key);
                return v == nullptr ? 0 : v->asU64();
            };
            stats.cacheHits = u64("cache_hits");
            stats.cacheMisses = u64("cache_misses");
            stats.queueHighWater = u64("queue_high_water");
        }
    }
    ::close(fd);
    return stats;
}

/** A legal config drawn from the design space (PDP-11 word size). */
CacheConfig
drawConfig(Rng &rng)
{
    for (;;) {
        CacheConfig c = makeConfig(256u << rng.below(6),
                                   4u << rng.below(5), 2, 2);
        c.subBlockSize = std::max<std::uint32_t>(
            2, c.blockSize >> rng.below(4));
        c.assoc = 1u << rng.below(4);
        c.fetch = rng.chance(0.5) ? FetchPolicy::Demand
                                  : FetchPolicy::LoadForward;
        c.write = rng.chance(0.5) ? WritePolicy::WriteThrough
                                  : WritePolicy::CopyBack;
        c.writeAllocate = rng.chance(0.8);
        if (rng.chance(0.1))
            c.partition = CachePartition::SplitID;
        if (c.partition == CachePartition::SplitID &&
            c.netSize < 2 * c.blockSize)
            continue;
        if (validateServeConfig(c).empty())
            return c;
    }
}

/** One request of the open-loop schedule. */
struct Planned
{
    double offset = 0.0;  ///< due time after the phase start (s)
    bool fresh = false;
    std::size_t shape = 0;  ///< hot shape, or the fresh trace index
    WireRequest request;    ///< fresh requests only
    std::string payload;
};

/** Receive one request's frames; keeps frames that differ from
 *  @p expected (all frames when @p expected is null). */
bool
receive(int fd, const std::vector<std::string> *expected,
        Response &response)
{
    std::string frame;
    for (;;) {
        if (readFrame(fd, frame) != FrameStatus::Ok)
            return false;
        const double now = nowSec();
        if (response.firstFrame < 0.0)
            response.firstFrame = now;
        if (hasType(frame, "result")) {
            const std::size_t i = response.resultCount++;
            if (expected == nullptr || i >= expected->size() ||
                frame != (*expected)[i])
                response.results.push_back(std::move(frame));
            continue;
        }
        response.finished = now;
        response.done = hasType(frame, "done");
        response.error = !response.done;
        return true;
    }
}

/** Check a response against the hot reference of its shape. */
void
checkHotResponse(const ServeFixture &fixture, std::size_t shape,
                 const Response &response, RunOutcome &out)
{
    bool ok = response.done && !response.error &&
              response.resultCount == kConfigsPerShape;
    // Frames that were not byte-identical to the warm-up frames (a
    // hot cell evicted and recomputed) are compared by value.
    for (const std::string &frame : response.results) {
        std::size_t index = 0;
        SweepResult got;
        ok = ok && parseResultFrame(frame, index, got) &&
             index < kConfigsPerShape &&
             identicalResults(got, fixture.hotExpected[shape][index]);
    }
    if (!ok) {
        ++out.failed;
        out.fail(strfmt("hot shape %zu: bad response (%zu results, "
                        "done %d, error %d)",
                        shape, response.resultCount,
                        response.done ? 1 : 0, response.error ? 1 : 0));
    }
}

} // namespace

ServeFixture::~ServeFixture()
{
    if (server)
        server->stop();
    server.reset();
    std::error_code ignored;
    std::filesystem::remove_all(corpusDir, ignored);
    std::filesystem::remove(socketPath, ignored);
}

std::unique_ptr<ServeFixture>
setupServe(const std::string &tag, Tracer *tracer)
{
    auto fixture = std::make_unique<ServeFixture>();
    Suite suite = pdp11Suite();
    suite.traces.resize(kServeTraces);
    {
        Tracer::Scope span(tracer, "workload.build");
        fixture->traces = buildSuiteTraces(suite, kRefs);
    }

    fixture->corpusDir = "occbench-corpus-" + tag;
    fixture->socketPath = "occbench-" + tag + ".sock";
    std::error_code ignored;
    std::filesystem::remove_all(fixture->corpusDir, ignored);

    ServeOptions options;
    options.corpusDir = fixture->corpusDir;
    options.cacheCapacity = kCacheCapacity;
    options.maxConnections = 4 * benchThreads();
    fixture->server = std::make_unique<SweepServer>(options);
    for (const auto &trace : fixture->traces) {
        const double start = nowSec();
        std::string hash;
        {
            Tracer::Scope span(tracer, "trace.corpus_ingest");
            std::string error;
            hash = fixture->server->corpus().ingest(*trace, &error);
            if (hash.empty())
                fatal("corpus ingest failed: %s", error.c_str());
        }
        fixture->ingestMs.push_back((nowSec() - start) * 1e3);
        fixture->hashes.push_back(hash);
    }
    std::string error;
    if (!fixture->server->startUnix(fixture->socketPath, &error))
        fatal("cannot listen on %s: %s", fixture->socketPath.c_str(),
              error.c_str());

    // Hot shapes: every trace x two 4-config grids (cache sizes at
    // 16,16; sub-block sizes at 1 KB).
    for (std::size_t t = 0; t < kServeTraces; ++t) {
        for (std::size_t g = 0; g < 2; ++g) {
            WireRequest shape;
            shape.op = "sweep";
            shape.traces = {fixture->hashes[t]};
            for (std::size_t c = 0; c < kConfigsPerShape; ++c) {
                shape.configs.push_back(
                    g == 0 ? makeConfig(256u << c, 16, 16, 2)
                           : makeConfig(1024, 16, 2u << c, 2));
            }
            shape.label = strfmt("occbench-hot:%zu:%zu", t, g);
            fixture->hotPayload.push_back(wireRequestJson(shape));
            fixture->hot.push_back(std::move(shape));
            fixture->hotTrace.push_back(t);
        }
    }

    // Warm-up pass over the socket: computes and caches every hot
    // cell, then replays each shape once as a hit.
    const int fd = connectUnix(fixture->socketPath, &error);
    if (fd < 0)
        fatal("cannot connect: %s", error.c_str());
    fixture->hotFrames.resize(fixture->hot.size());
    for (int round = 0; round < 2; ++round) {
        for (std::size_t s = 0; s < fixture->hot.size(); ++s) {
            Response response;
            if (!writeFrame(fd, fixture->hotPayload[s]) ||
                !receive(fd, nullptr, response) || !response.done)
                fatal("warm-up request %zu failed", s);
            if (round == 1)
                fixture->hotFrames[s] = std::move(response.results);
        }
    }
    ::close(fd);
    return fixture;
}

void
checkHotFrames(ServeFixture &fixture, RunOutcome &out)
{
    fixture.hotExpected.assign(fixture.hot.size(), {});
    for (std::size_t s = 0; s < fixture.hot.size(); ++s) {
        SweepRequest direct;
        direct.traces = {fixture.traces[fixture.hotTrace[s]]};
        direct.configs = fixture.hot[s].configs;
        direct.wantAverage = false;
        direct.label = "occbench:serve_check";
        fixture.hotExpected[s] = runSweep(direct).perTrace[0];
        ++out.attempted;
        Response warm;
        warm.done = true;
        warm.resultCount = fixture.hotFrames[s].size();
        warm.results = fixture.hotFrames[s];
        checkHotResponse(fixture, s, warm, out);
    }
}

LoadResult
runHotLoop(ServeFixture &fixture, double seconds, std::uint64_t seed,
           Tracer *tracer, RunOutcome &out)
{
    const unsigned clients = benchThreads();
    struct Done
    {
        std::size_t shape;
        double latencyMs;
        Response response;
    };
    std::vector<std::vector<Done>> per_client(clients);
    std::vector<char> connected(clients, 0);
    const ServeStats before = wireStats(fixture);

    LoadResult result;
    const double start = nowSec();
    const double deadline = start + seconds;
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                const int fd = connectUnix(fixture.socketPath);
                if (fd < 0)
                    return;
                connected[c] = 1;
                Rng rng(seed * 7919 + c);
                std::uint64_t id = (static_cast<std::uint64_t>(c) + 1)
                                   << 40;
                while (nowSec() < deadline) {
                    const std::size_t shape =
                        rng.below(fixture.hot.size());
                    Done done{shape, 0.0, {}};
                    const double t0 = nowSec();
                    bool ok = false;
                    {
                        Tracer::Scope span(tracer, "client.request",
                                           ++id);
                        {
                            Tracer::Scope send(tracer, "client.send");
                            ok = writeFrame(fd,
                                            fixture.hotPayload[shape]);
                        }
                        Tracer::Scope wait(tracer, "client.receive");
                        ok = ok && receive(fd, &fixture.hotFrames[shape],
                                           done.response);
                    }
                    done.latencyMs = (nowSec() - t0) * 1e3;
                    per_client[c].push_back(std::move(done));
                    if (!ok)
                        break;
                }
                ::close(fd);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    result.seconds = nowSec() - start;
    const ServeStats after = wireStats(fixture);
    result.hits = after.cacheHits - before.cacheHits;
    result.misses = after.cacheMisses - before.cacheMisses;
    result.queueHighWater = after.queueHighWater;

    // Correctness, outside the timed phase.
    for (unsigned c = 0; c < clients; ++c) {
        if (!connected[c]) {
            ++out.attempted;
            ++out.failed;
            out.fail("client could not connect");
        }
        for (const Done &done : per_client[c]) {
            ++out.attempted;
            checkHotResponse(fixture, done.shape, done.response, out);
            if (done.response.done) {
                result.latencyMs.push_back(done.latencyMs);
                result.cells += done.response.resultCount;
            }
        }
    }
    return result;
}

LoadResult
runMixedLoop(ServeFixture &fixture, double seconds, std::uint64_t seed,
             Tracer *tracer, RunOutcome &out)
{
    // The schedule, drawn from the seed before the clock starts:
    // jittered arrivals at kMixedRate, hot vs fresh, fresh configs.
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
    std::set<std::string> seen;
    for (const WireRequest &shape : fixture.hot) {
        for (const CacheConfig &c : shape.configs)
            seen.insert(canonicalConfigJson(c));
    }
    // Stratified, so every seed prices the same mix: exactly
    // kFreshShare of the requests are fresh (at seeded positions),
    // their sizes cycle through 1..4 configs and their replacement
    // policies through LRU / FIFO / Random.
    std::vector<double> offsets;
    for (double offset = 0.0; offset < seconds;
         offset += (0.5 + rng.uniform()) / kMixedRate)
        offsets.push_back(offset);
    const auto fresh_count = static_cast<std::size_t>(
        kFreshShare * static_cast<double>(offsets.size()) + 0.5);
    std::vector<char> is_fresh(offsets.size(), 0);
    std::fill(is_fresh.begin(), is_fresh.begin() + fresh_count, 1);
    for (std::size_t i = is_fresh.size(); i > 1; --i)
        std::swap(is_fresh[i - 1], is_fresh[rng.below(i)]);
    std::vector<Planned> plan(offsets.size());
    std::size_t fresh_seq = 0;
    std::size_t config_seq = rng.below(3);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Planned &p = plan[i];
        p.offset = offsets[i];
        p.fresh = is_fresh[i] != 0;
        if (!p.fresh) {
            p.shape = rng.below(fixture.hot.size());
            continue;
        }
        p.shape = rng.below(fixture.traces.size());
        p.request.op = "sweep";
        p.request.traces = {fixture.hashes[p.shape]};
        p.request.priority = kFreshPriority;
        p.request.label = "occbench-fresh";
        const std::size_t k = 1 + fresh_seq++ % 4;
        while (p.request.configs.size() < k) {
            CacheConfig c = drawConfig(rng);
            c.replacement =
                static_cast<ReplacementPolicy>(config_seq % 3);
            if (seen.insert(canonicalConfigJson(c)).second) {
                p.request.configs.push_back(c);
                ++config_seq;
            }
        }
        p.payload = wireRequestJson(p.request);
    }
    std::uint64_t fingerprint = fnv1a(strfmt("%zu", plan.size()));
    for (const Planned &p : plan) {
        fingerprint = fnv1a(strfmt("%.9f|%zu|", p.offset, p.shape) +
                                p.payload,
                            fingerprint);
    }
    std::printf("request stream: %zu requests, %zu fresh, fingerprint "
                "%016llx\n",
                plan.size(), fresh_count,
                static_cast<unsigned long long>(fingerprint));

    const unsigned conns = benchThreads();
    struct Conn
    {
        int fd = -1;
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<std::size_t> outstanding;
        bool closing = false;
        std::thread reader;
    };
    std::vector<Conn> conn(conns);
    std::vector<OpenLoopSample> samples(plan.size());
    std::vector<Response> responses(plan.size());
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t finished = 0;

    for (unsigned c = 0; c < conns; ++c) {
        conn[c].fd = connectUnix(fixture.socketPath);
        if (conn[c].fd < 0)
            fatal("serve_mixed: cannot connect");
    }
    for (unsigned c = 0; c < conns; ++c) {
        conn[c].reader = std::thread([&, c] {
            Conn &self = conn[c];
            for (;;) {
                std::size_t i = 0;
                {
                    std::unique_lock<std::mutex> lock(self.mutex);
                    if (self.outstanding.empty())
                        self.cv.wait_for(
                            lock, std::chrono::milliseconds(50));
                    if (self.outstanding.empty()) {
                        if (self.closing)
                            return;
                        continue;
                    }
                    i = self.outstanding.front();
                }
                const Planned &p = plan[i];
                const bool ok = receive(
                    self.fd, p.fresh ? nullptr : &fixture.hotFrames[p.shape],
                    responses[i]);
                if (!ok)
                    return;
                samples[i].done = responses[i].finished;
                {
                    std::lock_guard<std::mutex> lock(self.mutex);
                    self.outstanding.pop_front();
                }
                {
                    std::lock_guard<std::mutex> lock(done_mutex);
                    ++finished;
                }
                done_cv.notify_all();
            }
        });
    }

    const ServeStats before = wireStats(fixture);
    const double start = nowSec();
    std::thread generator([&] {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            samples[i].due = start + plan[i].offset;
            std::this_thread::sleep_until(
                std::chrono::steady_clock::now() +
                std::chrono::duration<double>(
                    std::max(0.0, samples[i].due - nowSec())));
            // The least-loaded connection (responses on one
            // connection arrive in request order).
            unsigned best = 0;
            std::size_t depth = SIZE_MAX;
            for (unsigned c = 0; c < conns; ++c) {
                std::lock_guard<std::mutex> lock(conn[c].mutex);
                if (conn[c].outstanding.size() < depth) {
                    depth = conn[c].outstanding.size();
                    best = c;
                }
            }
            {
                std::lock_guard<std::mutex> lock(conn[best].mutex);
                conn[best].outstanding.push_back(i);
            }
            conn[best].cv.notify_one();
            samples[i].sent = nowSec();
            const Planned &p = plan[i];
            Tracer::Scope span(tracer, "client.send", i + 1);
            writeFrame(conn[best].fd,
                       p.fresh ? p.payload : fixture.hotPayload[p.shape]);
        }
    });
    generator.join();
    {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait_for(lock, std::chrono::duration<double>(kDrainSeconds),
                         [&] { return finished == plan.size(); });
    }
    LoadResult result;
    result.seconds = nowSec() - start;
    const ServeStats after = wireStats(fixture);
    for (Conn &c : conn) {
        {
            std::lock_guard<std::mutex> lock(c.mutex);
            c.closing = true;
        }
        ::shutdown(c.fd, SHUT_RDWR);
        c.reader.join();
        ::close(c.fd);
    }

    if (tracer != nullptr) {
        // Client-side request spans, reconstructed from the samples:
        // queued (due -> sent) and in flight (sent -> done).
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (samples[i].done < 0.0)
                continue;
            const auto ns = [](double s) {
                return static_cast<std::int64_t>(s * 1e9);
            };
            Span request{plan[i].fresh ? "client.fresh_request"
                                       : "client.hot_request",
                         ns(samples[i].due), ns(samples[i].done), -1,
                         i + 1};
            const std::int64_t parent = tracer->record(request);
            tracer->record({"client.generator_late", ns(samples[i].due),
                            ns(samples[i].sent), parent, i + 1});
        }
    }
    result.hits = after.cacheHits - before.cacheHits;
    result.misses = after.cacheMisses - before.cacheMisses;
    result.queueHighWater = after.queueHighWater;

    // Correctness, outside the timed phase. Fresh cells are checked
    // against one direct runSweep per trace over all its fresh
    // configs.
    std::map<std::size_t, std::vector<CacheConfig>> fresh_configs;
    for (const Planned &p : plan) {
        if (p.fresh) {
            auto &list = fresh_configs[p.shape];
            list.insert(list.end(), p.request.configs.begin(),
                        p.request.configs.end());
        }
    }
    std::map<std::string, SweepResult> reference;
    for (const auto &[t, configs] : fresh_configs) {
        SweepRequest direct;
        direct.traces = {fixture.traces[t]};
        direct.configs = configs;
        direct.wantAverage = false;
        direct.label = "occbench:serve_check";
        const SweepReport report = runSweep(direct);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            reference[strfmt("%zu|", t) +
                      canonicalConfigJson(configs[c])] =
                report.perTrace[0][c];
        }
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Planned &p = plan[i];
        const Response &response = responses[i];
        ++out.attempted;
        if (samples[i].done < 0.0) {
            ++out.failed;
            out.fail(strfmt("request %zu unfinished at run end", i));
            continue;
        }
        result.latencyMs.push_back(openLoopLatencyMs(samples[i]));
        result.lateMs.push_back(generatorLateMs(samples[i]));
        result.cells += response.resultCount;
        if (!p.fresh) {
            checkHotResponse(fixture, p.shape, response, out);
            continue;
        }
        ++result.freshRequests;
        result.freshFirstMs.push_back(
            (response.firstFrame - samples[i].due) * 1e3);
        result.freshLatencyMs.push_back(result.latencyMs.back());
        bool ok = response.done &&
                  response.resultCount == p.request.configs.size() &&
                  response.results.size() == response.resultCount;
        for (const std::string &frame : response.results) {
            std::size_t index = 0;
            SweepResult got;
            ok = ok && parseResultFrame(frame, index, got) &&
                 index < p.request.configs.size() &&
                 identicalResults(
                     got,
                     reference[strfmt("%zu|", p.shape) +
                               canonicalConfigJson(
                                   p.request.configs[index])]);
        }
        if (!ok) {
            ++out.failed;
            out.fail(strfmt("fresh request %zu: results differ from "
                            "direct runSweep",
                            i));
        }
    }
    return result;
}

RunOutcome
runServe(const Options &options, int setup_repeats, Tracer *tracer)
{
    RunOutcome out;
    std::printf("serve_mixed: seed %llu (drives the arrival schedule, "
                "hot/fresh draw and fresh configs), %u threads and "
                "connections, 1M-ref corpus traces\n",
                static_cast<unsigned long long>(options.seed),
                benchThreads());

    std::vector<double> setups;
    std::unique_ptr<ServeFixture> fixture;
    for (int r = 0; r < setup_repeats; ++r) {
        fixture.reset();
        clearTraceCache();
        const double start = nowSec();
        fixture = setupServe(strfmt("serve_mixed-%d", r), tracer);
        setups.push_back(nowSec() - start);
        std::printf("setup %d: %.3f s\n", r, setups.back());
    }
    checkHotFrames(*fixture, out);

    ::malloc_trim(0);  // set-up garbage is not the phase's memory
    if (!resetPeakRss())
        out.fail("cannot reset the resident-set high-water mark");
    const LoadResult load =
        runMixedLoop(*fixture, options.seconds, options.seed, tracer, out);
    const double peak_mb = peakRssMb();

    const TailPercentile p99 = tailPercentile(load.latencyMs, 0.99);
    std::printf("timed: %zu requests (%llu fresh) in %.3f s; p99 %.3f ms "
                "over %zu samples with %zu beyond it (the >=10-beyond "
                "rule %s); cache %llu hits / %llu misses; fail_frac "
                "%.6f\n",
                load.latencyMs.size(),
                static_cast<unsigned long long>(load.freshRequests),
                load.seconds, p99.value, p99.samples, p99.beyond,
                p99.reportable ? "holds" : "does not hold",
                static_cast<unsigned long long>(load.hits),
                static_cast<unsigned long long>(load.misses),
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0);
    const double rate =
        static_cast<double>(load.latencyMs.size()) / load.seconds;
    out.add("setup_s", "s", median(setups));
    out.add("cfgref_per_s", "config-refs/s",
            static_cast<double>(load.cells) * kRefs / load.seconds);
    out.add("req_per_s", "req/s", rate);
    out.add("req_p50_ms", "ms", median(load.latencyMs));
    out.add("fresh_p50_ms", "ms", median(load.freshLatencyMs));
    out.add("peak_rss_mb", "MB", peak_mb);
    return out;
}

} // namespace occbench
