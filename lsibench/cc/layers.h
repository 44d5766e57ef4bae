// The traced run's per-layer measurements: spans around calls into each
// module's public functions, made from the benchmark's own code, plus
// deltas of the program's existing lsi.* registry counters.

#ifndef LSIBENCH_LAYERS_H_
#define LSIBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "synth.h"
#include "text/corpus.h"

namespace lsibench {

/// In-memory span log, written out when the run ends. A span's layer is
/// the part of its name before the first '.'.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0: a root.
    std::uint64_t request = 0;  // Spans of one request share it.
    std::string name;
    double start_us = 0.0;  // Since the log was created.
    double duration_us = 0.0;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Records a finished span and returns its id.
  std::uint64_t Add(const std::string& name, std::uint64_t parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end);
  /// Records a span whose duration the program measured itself (its own
  /// span registry); it has no start of its own.
  std::uint64_t AddMeasured(const std::string& name, std::uint64_t parent,
                            std::uint64_t request, double duration_us);
  std::uint64_t NewRequest() { return ++last_request_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Median over requests of each layer's self time (a span's duration
  /// minus its children's), in milliseconds.
  std::vector<std::pair<std::string, double>> LayerSelfTimesMs() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t last_request_ = 0;
};

enum class Workload { kSearchCold, kSearchZipf, kLiveMixed, kRoutedCold };

struct LayerContext {
  Workload workload = Workload::kSearchCold;
  Stack* stack = nullptr;
  const Synth* synth = nullptr;
  const lsi::text::Corpus* corpus = nullptr;  // The base corpus.
  std::uint64_t first_query = 0;  // Fresh query indices start here.
  Writer* writer = nullptr;       // live-mixed only.
  std::string work_dir;           // For the throwaway WAL.
  double observed_batch_size = 1.0;
};

/// Replays fresh requests of the workload's stream through each layer's
/// public functions and records the per-call metrics. Returns false when
/// a replay disagreed with the serving path (a benchmark failure).
bool MeasureLayers(const LayerContext& context, Metrics* metrics,
                   SpanLog* spans);

/// Change of a counter (or cumulative gauge) between two registry
/// snapshots.
double CounterDelta(const lsi::obs::MetricsSnapshot& before,
                    const lsi::obs::MetricsSnapshot& after,
                    const std::string& name);
/// Mean of the observations a histogram gained between the snapshots.
double HistogramDeltaMean(const lsi::obs::MetricsSnapshot& before,
                          const lsi::obs::MetricsSnapshot& after,
                          const std::string& name);

}  // namespace lsibench

#endif  // LSIBENCH_LAYERS_H_
