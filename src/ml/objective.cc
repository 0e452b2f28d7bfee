#include "ml/objective.h"

#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "la/blas.h"
#include "la/chunker.h"
#include "util/thread_pool.h"

namespace m3::ml {

namespace {

/// One chunk's contribution to the pass: loss + partial gradient.
struct ChunkPartial {
  double loss = 0;
  la::Vector grad;
};

}  // namespace

la::Vector ChunkedObjective::TakeScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_.empty()) {
      la::Vector partial = std::move(scratch_.back());
      scratch_.pop_back();
      return partial;
    }
  }
  return la::Vector(Dimension());
}

void ChunkedObjective::GiveScratch(la::Vector zeroed) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_.push_back(std::move(zeroed));
}

double ChunkedObjective::ReduceRanges(size_t begin, size_t end, size_t grain,
                                      la::VectorView grad,
                                      const RangeFn& range) {
  const size_t parts =
      util::PartitionRange(begin, end, grain,
                           util::GlobalThreadPool().num_threads())
          .size();
  std::vector<la::Vector> partials(parts);
  std::vector<double> losses(parts, 0.0);
  util::ParallelForIndexed(begin, end, grain,
                           [&](size_t part, size_t lo, size_t hi) {
    partials[part] = TakeScratch();
    losses[part] = range(lo, hi, partials[part]);
  });
  la::AccumulateAndClear(
      std::vector<la::VectorView>(partials.begin(), partials.end()), grad);
  double loss = 0;
  for (size_t part = 0; part < parts; ++part) {
    loss += losses[part];
    GiveScratch(std::move(partials[part]));
  }
  return loss;
}

double ChunkedObjective::ApplyRegularization(la::ConstVectorView,
                                             la::VectorView) {
  return 0.0;
}

std::unique_ptr<la::Chunker> ChunkedObjective::MakeChunker() const {
  return std::make_unique<la::RowChunker>(NumRows(), chunk_rows_);
}

double ChunkedObjective::EvaluateWithGradient(la::ConstVectorView w,
                                              la::VectorView grad) {
  if (hooks_.before_pass) {
    hooks_.before_pass(passes_);
  }
  ++passes_;
  grad.SetZero();
  double loss = 0;
  const std::unique_ptr<la::Chunker> chunker_ptr = MakeChunker();
  const la::Chunker& chunker = *chunker_ptr;
  exec::MapReduceChunks<ChunkPartial>(
      pipeline_, chunker,
      [&](size_t, size_t row_begin, size_t row_end) {
        ChunkPartial partial;
        partial.grad = TakeScratch();
        partial.loss =
            EvaluateChunk(row_begin, row_end, w, partial.grad.View());
        return partial;
      },
      [&](size_t chunk, ChunkPartial&& partial) {
        loss += partial.loss;
        la::AccumulateAndClear({partial.grad.View()}, grad);
        GiveScratch(std::move(partial.grad));
        if (hooks_.after_chunk) {
          const la::Chunker::Range range = chunker.Chunk(chunk);
          hooks_.after_chunk(range.begin, range.end);
        }
      });
  loss += ApplyRegularization(w, grad);
  return loss;
}

}  // namespace m3::ml
