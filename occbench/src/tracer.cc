#include "tracer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace occbench {

namespace {

/** Innermost open scope on this thread (-1 = none). */
thread_local std::int64_t t_current = -1;

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans) {
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) < spans.size())
            children[span.parent].emplace_back(span.start, span.end);
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.start;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.end);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = (span.end - span.start) - covered;
    }
    return self;
}

Tracer::Scope::Scope(Tracer *tracer, const char *name,
                     std::uint64_t request)
    : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    saved_parent_ = t_current;
    index_ = tracer_->open(name, t_current, request);
    t_current = index_;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    tracer_->close(index_);
    t_current = saved_parent_;
}

std::int64_t
Tracer::open(const char *name, std::int64_t parent,
             std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = parent;
    std::lock_guard<std::mutex> lock(mutex_);
    // A child inherits its parent's request id unless it names one.
    if (request == 0 && parent >= 0)
        request = spans_[parent].request;
    span.request = request;
    span.start = nowNs();
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t index)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = end;
}

std::int64_t
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = selfTimesNs(all);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                     "\"self_ns\":%lld}\n",
                     i, s.name.c_str(), static_cast<long long>(s.start),
                     static_cast<long long>(s.end),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(out) == 0;
}

} // namespace occbench
