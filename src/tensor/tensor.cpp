#include "tensor/tensor.h"

#include <algorithm>

#include "obs/mem.h"
#include "obs/prof.h"
#include "par/pool.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace tx {

TensorImpl::TensorImpl() { obs::mem::on_tensor_create(); }

TensorImpl::~TensorImpl() {
  std::int64_t remaining = accounted_bytes_;
  if (remaining != 0) {
    // Inside a step region the buffers are donated to the thread's pool
    // (tx::alloc keeps them accounted as live); only the non-donated
    // remainder actually returns to the heap.
    remaining -= alloc::donate(data);
    remaining -= alloc::donate(grad);
    if (remaining != 0) obs::mem::on_bytes_delta(-remaining);
  }
  obs::mem::on_tensor_destroy();
}

void TensorImpl::account() {
  const std::int64_t now = static_cast<std::int64_t>(
      (data.capacity() + grad.capacity()) * sizeof(float));
  if (now == accounted_bytes_) return;
  const std::int64_t delta = now - accounted_bytes_;
  if (delta > 0) {
    // Growth served from the step pool was already live under the pool's
    // ledger (tracked by the thread's acquisition credit); only the fresh
    // remainder is new heap traffic and allocator churn.
    const std::int64_t fresh = delta - alloc::consume_credit(delta);
    if (fresh > 0) {
      obs::mem::on_bytes_delta(fresh);
      obs::prof::on_alloc(fresh);
    }
  } else {
    obs::mem::on_bytes_delta(delta);
  }
  accounted_bytes_ = now;
}

void TensorImpl::release_grad() {
  if (grad.capacity() == 0) return;
  const std::int64_t absorbed = alloc::donate(grad);
  if (absorbed != 0) {
    // The bytes moved into the pool ledger and are still live.
    accounted_bytes_ -= absorbed;
  } else {
    std::vector<float>().swap(grad);
  }
  account();
}

namespace {
thread_local bool g_grad_enabled = true;

// Propagate the caller's grad mode into tx::par worker tasks: without this a
// NoGradGuard on the caller would leave workers recording tape (and sampling
// through rsample instead of sample), breaking cross-thread-count bitwise
// determinism.
const bool g_par_grad_mode_registered = [] {
  par::register_context_capture([]() -> par::ContextInstaller {
    const bool enabled = g_grad_enabled;
    return [enabled]() -> std::function<void()> {
      const bool prev = g_grad_enabled;
      g_grad_enabled = enabled;
      return [prev] { g_grad_enabled = prev; };
    };
  });
  return true;
}();
}  // namespace

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

GradModeScope::GradModeScope(bool enabled) : previous_(g_grad_enabled) {
  g_grad_enabled = enabled;
}
GradModeScope::~GradModeScope() { g_grad_enabled = previous_; }

Tensor::Tensor(Shape shape, float fill) {
  const std::int64_t n = numel_of(shape);
  impl_ = std::make_shared<TensorImpl>();
  impl_->shape = std::move(shape);
  if (fill == 0.0f) {
    impl_->data = alloc::buffer(n);
  } else {
    impl_->data = alloc::buffer_uninit(n);
    std::fill(impl_->data.begin(), impl_->data.end(), fill);
  }
  impl_->account();
}

Tensor::Tensor(Shape shape, std::vector<float> data) {
  const std::int64_t n = numel_of(shape);
  TX_CHECK(static_cast<std::int64_t>(data.size()) == n, "data size ",
           data.size(), " != numel ", n, " of shape [", join(shape), "]");
  impl_ = std::make_shared<TensorImpl>();
  impl_->shape = std::move(shape);
  impl_->data = std::move(data);
  impl_->account();
}

Tensor Tensor::from_vector(std::vector<float> values) {
  Shape shape{static_cast<std::int64_t>(values.size())};
  return Tensor(std::move(shape), std::move(values));
}

const Shape& Tensor::shape() const {
  TX_CHECK(defined(), "shape() on undefined tensor");
  return impl_->shape;
}

std::int64_t Tensor::dim(std::int64_t i) const {
  const auto& s = shape();
  const std::int64_t r = static_cast<std::int64_t>(s.size());
  if (i < 0) i += r;
  TX_CHECK(i >= 0 && i < r, "dim index ", i, " out of range for rank ", r);
  return s[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::numel() const {
  TX_CHECK(defined(), "numel() on undefined tensor");
  return static_cast<std::int64_t>(impl_->data.size());
}

float* Tensor::data() {
  TX_CHECK(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

const float* Tensor::data() const {
  TX_CHECK(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

std::vector<float> Tensor::to_vector() const {
  TX_CHECK(defined(), "to_vector() on undefined tensor");
  return impl_->data;
}

float Tensor::item() const {
  TX_CHECK(defined() && numel() == 1, "item() requires exactly one element");
  return impl_->data[0];
}

float& Tensor::at(std::int64_t flat) {
  TX_CHECK(defined() && flat >= 0 && flat < numel(), "flat index ", flat,
           " out of range");
  return impl_->data[static_cast<std::size_t>(flat)];
}

float Tensor::at(std::int64_t flat) const {
  TX_CHECK(defined() && flat >= 0 && flat < numel(), "flat index ", flat,
           " out of range");
  return impl_->data[static_cast<std::size_t>(flat)];
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  TX_CHECK(defined(), "set_requires_grad on undefined tensor");
  TX_CHECK(!impl_->grad_fn, "set_requires_grad is only valid on leaf tensors");
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::is_leaf() const { return defined() && !impl_->grad_fn; }

bool Tensor::has_grad() const { return defined() && !impl_->grad.empty(); }

Tensor Tensor::grad() const {
  TX_CHECK(defined(), "grad() on undefined tensor");
  if (impl_->grad.empty()) return zeros(impl_->shape);
  const auto n = static_cast<std::int64_t>(impl_->grad.size());
  std::vector<float> v = alloc::buffer_uninit(n);
  simd::copy_n(impl_->grad.data(), v.data(), n);
  return Tensor(impl_->shape, std::move(v));
}

const std::vector<float>& Tensor::grad_buffer() const {
  TX_CHECK(defined(), "grad_buffer() on undefined tensor");
  return impl_->grad;
}

void Tensor::zero_grad() {
  TX_CHECK(defined(), "zero_grad() on undefined tensor");
  // Release the buffer (not just clear) so live-bytes accounting reflects
  // the drop between backward passes; inside a step region the buffer is
  // donated for reuse instead of freed.
  impl_->release_grad();
}

Tensor Tensor::detach() const {
  TX_CHECK(defined(), "detach() on undefined tensor");
  const std::int64_t n = numel();
  std::vector<float> v = alloc::buffer_uninit(n);
  simd::copy_n(impl_->data.data(), v.data(), n);
  return Tensor(impl_->shape, std::move(v));
}

Tensor Tensor::clone() const {
  TX_CHECK(defined(), "clone() on undefined tensor");
  const std::int64_t n = numel();
  std::vector<float> v = alloc::buffer_uninit(n);
  simd::copy_n(impl_->data.data(), v.data(), n);
  return make_tensor_from_op(
      "clone", impl_->shape, std::move(v), {*this},
      [](const Tensor& g) { return std::vector<Tensor>{g}; });
}

void Tensor::add_(const Tensor& other, float alpha) {
  TX_CHECK(defined() && other.defined(), "add_ on undefined tensor");
  TX_CHECK(is_leaf(), "in-place add_ only allowed on leaf tensors");
  TX_CHECK(numel() == other.numel(), "add_ numel mismatch: ", numel(), " vs ",
           other.numel());
  simd::axpy_n(alpha, other.data(), data(), numel());
}

void Tensor::mul_(float s) {
  TX_CHECK(defined(), "mul_ on undefined tensor");
  TX_CHECK(is_leaf(), "in-place mul_ only allowed on leaf tensors");
  simd::scale_n(impl_->data.data(), s, impl_->data.data(),
                static_cast<std::int64_t>(impl_->data.size()));
}

void Tensor::fill_(float v) {
  TX_CHECK(defined(), "fill_ on undefined tensor");
  TX_CHECK(is_leaf(), "in-place fill_ only allowed on leaf tensors");
  std::fill(impl_->data.begin(), impl_->data.end(), v);
}

void Tensor::copy_(const Tensor& src) {
  TX_CHECK(defined() && src.defined(), "copy_ on undefined tensor");
  TX_CHECK(is_leaf(), "in-place copy_ only allowed on leaf tensors");
  TX_CHECK(numel() == src.numel(), "copy_ numel mismatch");
  impl_->data = src.impl()->data;
  impl_->account();
}

Tensor Tensor::reshape(Shape new_shape) const { return tx::reshape(*this, std::move(new_shape)); }

Tensor Tensor::flatten(std::int64_t start_dim) const {
  const auto& s = shape();
  TX_CHECK(start_dim >= 0 && start_dim <= rank(), "bad flatten start_dim");
  Shape out(s.begin(), s.begin() + start_dim);
  std::int64_t rest = 1;
  for (std::size_t i = static_cast<std::size_t>(start_dim); i < s.size(); ++i) {
    rest *= s[i];
  }
  out.push_back(rest);
  return tx::reshape(*this, out);
}

Tensor Tensor::transpose(std::int64_t a, std::int64_t b) const {
  return tx::transpose(*this, a, b);
}

Tensor Tensor::sum() const { return tx::sum(*this); }
Tensor Tensor::mean() const { return tx::mean(*this); }

Tensor make_tensor_from_op(
    std::string op_name, Shape shape, std::vector<float> data,
    std::vector<Tensor> inputs,
    std::function<std::vector<Tensor>(const Tensor&)> backward_fn) {
  Tensor out(std::move(shape), std::move(data));
  if (!grad_enabled()) return out;
  bool needs_grad = false;
  for (const auto& in : inputs) {
    if (in.defined() && in.requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  if (!needs_grad) return out;
  auto node = std::make_shared<GradNode>();
  node->op_name = std::move(op_name);
  node->inputs = std::move(inputs);
  node->backward_fn = std::move(backward_fn);
  out.impl()->grad_fn = std::move(node);
  out.impl()->requires_grad = true;
  return out;
}

Tensor make_tensor_from_op_with_out(
    std::string op_name, Shape shape, std::vector<float> data,
    std::vector<Tensor> inputs,
    std::function<std::vector<Tensor>(const Tensor&, const Tensor&)>
        backward_fn) {
  Tensor out(std::move(shape), std::move(data));
  if (!grad_enabled()) return out;
  bool needs_grad = false;
  for (const auto& in : inputs) {
    if (in.defined() && in.requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  if (!needs_grad) return out;
  auto node = std::make_shared<GradNode>();
  node->op_name = std::move(op_name);
  node->inputs = std::move(inputs);
  node->backward_with_out_fn = std::move(backward_fn);
  out.impl()->grad_fn = std::move(node);
  out.impl()->requires_grad = true;
  return out;
}

namespace {

void accumulate_grad(const std::shared_ptr<TensorImpl>& impl, const Tensor& g) {
  TX_CHECK(g.defined(), "accumulating undefined gradient");
  TX_CHECK(g.numel() == static_cast<std::int64_t>(impl->data.size()),
           "gradient numel ", g.numel(), " != tensor numel ", impl->data.size());
  const auto n = static_cast<std::int64_t>(impl->data.size());
  if (impl->grad.empty()) {
    impl->grad = alloc::buffer_uninit(n);
    simd::copy_n(g.data(), impl->grad.data(), n);
    impl->account();
  } else {
    simd::add_n(impl->grad.data(), g.data(), impl->grad.data(), n);
  }
}

}  // namespace

void Tensor::backward() const {
  TX_CHECK(defined(), "backward() on undefined tensor");
  TX_CHECK(numel() == 1, "backward() requires a scalar root, got numel ",
           numel());
  // Topological order via iterative post-order DFS over grad_fn edges.
  std::vector<std::shared_ptr<TensorImpl>> topo;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<std::shared_ptr<TensorImpl>, std::size_t>> stack;
  if (impl_->grad_fn) {
    stack.emplace_back(impl_, 0);
    visited.insert(impl_.get());
  }
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    const auto& fn = node->grad_fn;
    if (!fn || next_child >= fn->inputs.size()) {
      topo.push_back(node);
      stack.pop_back();
      continue;
    }
    const Tensor& child = fn->inputs[next_child++];
    if (child.defined() && child.impl()->grad_fn &&
        !visited.count(child.impl().get())) {
      visited.insert(child.impl().get());
      stack.emplace_back(child.impl(), 0);
    }
  }

  // Seed the root gradient with 1.
  accumulate_grad(impl_, ones(impl_->shape));

  NoGradGuard no_grad;  // backward passes never build higher-order graphs
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto& node = *it;
    const auto& fn = node->grad_fn;
    if (!fn) continue;
    if (node->grad.empty()) continue;  // branch never reached by the root
    const auto gn = static_cast<std::int64_t>(node->grad.size());
    std::vector<float> gbuf = alloc::buffer_uninit(gn);
    simd::copy_n(node->grad.data(), gbuf.data(), gn);
    Tensor grad_out(node->shape, std::move(gbuf));
    std::vector<Tensor> input_grads =
        fn->backward_fn ? fn->backward_fn(grad_out)
                        : fn->backward_with_out_fn(grad_out, Tensor(node));
    TX_CHECK(input_grads.size() == fn->inputs.size(), "op ", fn->op_name,
             " backward returned ", input_grads.size(), " grads for ",
             fn->inputs.size(), " inputs");
    for (std::size_t i = 0; i < fn->inputs.size(); ++i) {
      const Tensor& in = fn->inputs[i];
      if (!in.defined() || !in.requires_grad()) continue;
      TX_CHECK(input_grads[i].defined(), "op ", fn->op_name,
               " returned undefined grad for differentiable input ", i);
      accumulate_grad(in.impl(), input_grads[i]);
    }
  }
}

// ---- factories -------------------------------------------------------------

Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
Tensor zeros_like(const Tensor& t) { return zeros(t.shape()); }
Tensor ones_like(const Tensor& t) { return ones(t.shape()); }

Tensor arange(std::int64_t n) {
  std::vector<float> v = alloc::buffer_uninit(n);
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return Tensor(Shape{n}, std::move(v));
}

Tensor linspace(float lo, float hi, std::int64_t n) {
  TX_CHECK(n >= 2, "linspace needs n >= 2");
  std::vector<float> v = alloc::buffer_uninit(n);
  const float step = (hi - lo) / static_cast<float>(n - 1);
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = lo + step * static_cast<float>(i);
  }
  return Tensor(Shape{n}, std::move(v));
}

Tensor eye(std::int64_t n) {
  Tensor t(Shape{n, n}, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) t.at(i * n + i) = 1.0f;
  return t;
}

Tensor randn(Shape shape, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  const std::int64_t n = numel_of(shape);
  std::vector<float> v = alloc::buffer_uninit(n);
  g.normal_fill(v.data(), v.size());
  return Tensor(std::move(shape), std::move(v));
}

Tensor rand_uniform(Shape shape, float lo, float hi, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  const std::int64_t n = numel_of(shape);
  std::vector<float> v = alloc::buffer_uninit(n);
  for (auto& x : v) x = static_cast<float>(g.uniform(lo, hi));
  return Tensor(std::move(shape), std::move(v));
}

Tensor randint(Shape shape, std::int64_t lo, std::int64_t hi, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  const std::int64_t n = numel_of(shape);
  std::vector<float> v = alloc::buffer_uninit(n);
  for (auto& x : v) x = static_cast<float>(g.randint(lo, hi));
  return Tensor(std::move(shape), std::move(v));
}

Tensor rand_sign(Shape shape, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  const std::int64_t n = numel_of(shape);
  std::vector<float> v = alloc::buffer_uninit(n);
  for (auto& x : v) x = g.bernoulli(0.5) ? 1.0f : -1.0f;
  return Tensor(std::move(shape), std::move(v));
}

// ---- comparisons / printing -------------------------------------------------

Tensor isclose(const Tensor& a, const Tensor& b, float atol) {
  TX_CHECK(a.shape() == b.shape(), "isclose shape mismatch");
  std::vector<float> v(static_cast<std::size_t>(a.numel()));
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    v[static_cast<std::size_t>(i)] =
        std::fabs(a.at(i) - b.at(i)) <= atol ? 1.0f : 0.0f;
  }
  return Tensor(a.shape(), std::move(v));
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.at(i), y = b.at(i);
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

std::string to_string(const Tensor& t, std::int64_t max_elems) {
  if (!t.defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor([" << join(t.shape()) << "], [";
  const std::int64_t n = std::min<std::int64_t>(t.numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << t.at(i);
  }
  if (t.numel() > n) os << ", ...";
  os << "])";
  return os.str();
}

}  // namespace tx
