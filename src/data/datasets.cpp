#include "data/datasets.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tx::data {

RegressionData make_foong_regression(std::int64_t n, Generator& gen,
                                     float noise) {
  std::vector<float> xs(static_cast<std::size_t>(n));
  std::vector<float> ys(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = i % 2 == 0 ? gen.uniform(-1.0, -0.7)
                                : gen.uniform(0.5, 1.0);
    xs[static_cast<std::size_t>(i)] = static_cast<float>(x);
    ys[static_cast<std::size_t>(i)] = static_cast<float>(
        std::cos(4.0 * x + 0.8) + gen.normal(0.0, noise));
  }
  return RegressionData{Tensor(Shape{n, 1}, std::move(xs)),
                        Tensor(Shape{n, 1}, std::move(ys))};
}

namespace {

/// Fixed smooth per-class pattern: a few random low-frequency gratings per
/// channel, fully determined by (pattern_seed, class).
Tensor class_pattern(std::int64_t cls, const SyntheticImageConfig& cfg) {
  Generator pg(cfg.pattern_seed * 1000003ULL +
               static_cast<std::uint64_t>(cls) * 7919ULL);
  Tensor pattern = zeros({cfg.channels, cfg.size, cfg.size});
  for (std::int64_t ch = 0; ch < cfg.channels; ++ch) {
    for (int wave = 0; wave < 3; ++wave) {
      const float fx = static_cast<float>(pg.uniform(0.5, 2.0));
      const float fy = static_cast<float>(pg.uniform(0.5, 2.0));
      const float phase = static_cast<float>(pg.uniform(0.0, 6.2831853));
      const float amp = static_cast<float>(pg.uniform(0.3, 0.7));
      for (std::int64_t y = 0; y < cfg.size; ++y) {
        for (std::int64_t x = 0; x < cfg.size; ++x) {
          const float u = static_cast<float>(x) / static_cast<float>(cfg.size);
          const float v = static_cast<float>(y) / static_cast<float>(cfg.size);
          pattern.at((ch * cfg.size + y) * cfg.size + x) +=
              amp * std::sin(6.2831853f * (fx * u + fy * v) + phase);
        }
      }
    }
  }
  return pattern;
}

}  // namespace

ImageDataset make_pattern_images(const SyntheticImageConfig& cfg,
                                 Generator& gen) {
  const std::int64_t n = cfg.num_classes * cfg.per_class;
  const std::int64_t pixels = cfg.channels * cfg.size * cfg.size;
  Tensor images = zeros({n, cfg.channels, cfg.size, cfg.size});
  Tensor labels = zeros({n});
  std::vector<Tensor> patterns;
  patterns.reserve(static_cast<std::size_t>(cfg.num_classes));
  for (std::int64_t c = 0; c < cfg.num_classes; ++c) {
    patterns.push_back(class_pattern(c, cfg));
  }
  std::int64_t idx = 0;
  for (std::int64_t c = 0; c < cfg.num_classes; ++c) {
    for (std::int64_t k = 0; k < cfg.per_class; ++k, ++idx) {
      const float brightness = static_cast<float>(gen.uniform(-0.2, 0.2));
      for (std::int64_t p = 0; p < pixels; ++p) {
        images.at(idx * pixels + p) =
            patterns[static_cast<std::size_t>(c)].at(p) + brightness +
            static_cast<float>(gen.normal(0.0, cfg.noise));
      }
      labels.at(idx) = static_cast<float>(c);
    }
  }
  // Shuffle examples so mini-batches mix classes.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), gen.engine());
  Tensor shuffled_images = zeros(images.shape());
  Tensor shuffled_labels = zeros(labels.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t src = order[static_cast<std::size_t>(i)];
    for (std::int64_t p = 0; p < pixels; ++p) {
      shuffled_images.at(i * pixels + p) = images.at(src * pixels + p);
    }
    shuffled_labels.at(i) = labels.at(src);
  }
  return ImageDataset{shuffled_images, shuffled_labels, cfg.num_classes};
}

ImageDataset make_ood_images(std::int64_t count, std::int64_t channels,
                             std::int64_t size, Generator& gen) {
  Tensor images = zeros({count, channels, size, size});
  for (std::int64_t i = 0; i < count; ++i) {
    // High-frequency checker texture with a random period and phase; a
    // generative family disjoint from the smooth class gratings.
    const std::int64_t period = gen.randint(1, 3);
    const float phase_x = static_cast<float>(gen.randint(0, size - 1));
    const float phase_y = static_cast<float>(gen.randint(0, size - 1));
    const float amp = static_cast<float>(gen.uniform(0.6, 1.2));
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (std::int64_t y = 0; y < size; ++y) {
        for (std::int64_t x = 0; x < size; ++x) {
          const auto cell =
              (static_cast<std::int64_t>(x + phase_x) / period +
               static_cast<std::int64_t>(y + phase_y) / period) %
              2;
          const float v = (cell == 0 ? amp : -amp) +
                          static_cast<float>(gen.normal(0.0, 0.15));
          images.at(((i * channels + ch) * size + y) * size + x) = v;
        }
      }
    }
  }
  return ImageDataset{images, zeros({count}), 0};
}

std::vector<SplitTask> make_split_tasks(const SyntheticImageConfig& base_cfg,
                                        std::int64_t num_tasks,
                                        std::int64_t train_per_class,
                                        std::int64_t test_per_class,
                                        Generator& gen, bool relabel) {
  TX_CHECK(base_cfg.num_classes >= 2 * num_tasks,
           "make_split_tasks: need 2 classes per task");
  std::vector<SplitTask> tasks;
  for (std::int64_t t = 0; t < num_tasks; ++t) {
    const std::int64_t a = 2 * t, b = 2 * t + 1;
    auto make_subset = [&](std::int64_t per_class) {
      SyntheticImageConfig cfg = base_cfg;
      cfg.num_classes = base_cfg.num_classes;  // keep the pattern identities
      cfg.per_class = per_class;
      ImageDataset full = make_pattern_images(cfg, gen);
      // Keep only classes a and b, relabelled 0/1.
      const std::int64_t pixels =
          cfg.channels * cfg.size * cfg.size;
      std::vector<std::int64_t> keep;
      for (std::int64_t i = 0; i < full.labels.numel(); ++i) {
        const auto c = static_cast<std::int64_t>(std::llround(full.labels.at(i)));
        if (c == a || c == b) keep.push_back(i);
      }
      const auto m = static_cast<std::int64_t>(keep.size());
      ImageDataset sub;
      sub.images = zeros({m, cfg.channels, cfg.size, cfg.size});
      sub.labels = zeros({m});
      sub.num_classes = 2;
      for (std::int64_t i = 0; i < m; ++i) {
        const std::int64_t src = keep[static_cast<std::size_t>(i)];
        for (std::int64_t p = 0; p < pixels; ++p) {
          sub.images.at(i * pixels + p) = full.images.at(src * pixels + p);
        }
        const auto orig =
            static_cast<std::int64_t>(std::llround(full.labels.at(src)));
        sub.labels.at(i) = relabel ? (orig == a ? 0.0f : 1.0f)
                                   : static_cast<float>(orig);
      }
      if (!relabel) sub.num_classes = cfg.num_classes;
      return sub;
    };
    SplitTask task;
    task.class_a = a;
    task.class_b = b;
    task.train = make_subset(train_per_class);
    task.test = make_subset(test_per_class);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

DataLoader::DataLoader(Tensor inputs, Tensor targets, std::int64_t batch_size,
                       bool shuffle)
    : inputs_(std::move(inputs)),
      targets_(std::move(targets)),
      n_(inputs_.dim(0)),
      batch_size_(batch_size),
      shuffle_(shuffle) {
  TX_CHECK(targets_.dim(0) == n_, "DataLoader: inputs/targets length mismatch");
  TX_CHECK(batch_size_ >= 1, "DataLoader: batch_size must be >= 1");
}

std::int64_t DataLoader::num_batches() const {
  return (n_ + batch_size_ - 1) / batch_size_;
}

std::vector<std::pair<std::vector<Tensor>, Tensor>> DataLoader::batches(
    Generator* gen) const {
  std::vector<std::int64_t> order(static_cast<std::size_t>(n_));
  std::iota(order.begin(), order.end(), 0);
  if (shuffle_) {
    Generator& g = gen ? *gen : global_generator();
    std::shuffle(order.begin(), order.end(), g.engine());
  }
  std::vector<std::pair<std::vector<Tensor>, Tensor>> out;
  for (std::int64_t start = 0; start < n_; start += batch_size_) {
    const std::int64_t end = std::min(start + batch_size_, n_);
    std::vector<std::int64_t> idx(order.begin() + start, order.begin() + end);
    Tensor bx = index_select(inputs_, 0, idx);
    Tensor by = index_select(targets_, 0, idx);
    out.emplace_back(std::vector<Tensor>{bx.detach()}, by.detach());
  }
  return out;
}

}  // namespace tx::data
