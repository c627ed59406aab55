// Standard effect handlers: trace, replay, condition, block, scale, mask.
// Each mirrors its Pyro poutine namesake. TracingMessenger marks sites on the
// Chrome-trace timeline (obs/trace.h).
#pragma once

#include <functional>
#include <map>

#include "ppl/trace.h"

namespace tx::ppl {

/// Records every site it sees into a Trace.
class TraceMessenger : public Messenger {
 public:
  void postprocess_message(SampleMsg& msg) override;
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
};

/// Forces non-observed sites to take the values recorded in a given trace
/// (used to score a model against guide samples).
class ReplayMessenger : public Messenger {
 public:
  explicit ReplayMessenger(const Trace& trace) : trace_(&trace) {}
  void process_message(SampleMsg& msg) override;

 private:
  const Trace* trace_;
};

/// Fixes named sites to given values and marks them observed.
class ConditionMessenger : public Messenger {
 public:
  explicit ConditionMessenger(std::map<std::string, Tensor> data)
      : data_(std::move(data)) {}
  void process_message(SampleMsg& msg) override;

 private:
  std::map<std::string, Tensor> data_;
};

/// Multiplies site log-prob scales (mini-batch likelihood scaling).
class ScaleMessenger : public Messenger {
 public:
  explicit ScaleMessenger(double scale) : scale_(scale) {
    TX_CHECK(scale > 0.0, "scale must be positive");
  }
  void process_message(SampleMsg& msg) override { msg.scale *= scale_; }

 private:
  double scale_;
};

/// Applies an elementwise log-prob mask to matching sites. With an empty
/// expose list every site is masked; otherwise only the listed site names.
/// Composing block semantics with a mask is exactly the paper's
/// selective_mask handler (Listing 4).
class MaskMessenger : public Messenger {
 public:
  explicit MaskMessenger(Tensor mask, std::vector<std::string> expose = {})
      : mask_(std::move(mask)), expose_(std::move(expose)) {}
  void process_message(SampleMsg& msg) override;

 private:
  Tensor mask_;
  std::vector<std::string> expose_;
};

/// Hides sites from handlers outside this one. `hide_fn` returns true for
/// sites to hide; with expose semantics pass a negated predicate.
class BlockMessenger : public Messenger {
 public:
  using Predicate = std::function<bool(const SampleMsg&)>;
  explicit BlockMessenger(Predicate hide_fn) : hide_fn_(std::move(hide_fn)) {}
  /// Hide the listed names (everything else passes through).
  static BlockMessenger hiding(std::vector<std::string> names);
  /// Hide everything except the listed names.
  static BlockMessenger exposing(std::vector<std::string> names);

  void process_message(SampleMsg& msg) override;

 private:
  Predicate hide_fn_;
};

/// Runs a nullary probabilistic program under a TraceMessenger and returns
/// the resulting trace (pyro.poutine.trace(fn).get_trace()).
Trace trace_fn(const std::function<void()>& fn);

/// Marks every sample / observe site the wrapped program touches as an
/// instant event on the tracer's timeline (obs/trace.h), tagged with the site
/// name, kind, and element count. No-op while tracing is off, so it can stay
/// attached permanently:
///
///   TracingMessenger tracer;
///   HandlerScope scope(tracer);
///   svi.step();   // every ppl site now ticks the timeline
class TracingMessenger : public Messenger {
 public:
  /// Sites mark in postprocess_message (outermost-last), after the value
  /// exists, so the event can carry the realized shape.
  void postprocess_message(SampleMsg& msg) override;

  std::int64_t sites_traced() const { return sites_traced_; }

 private:
  std::int64_t sites_traced_ = 0;
};

}  // namespace tx::ppl
