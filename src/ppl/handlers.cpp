#include "ppl/handlers.h"

#include <algorithm>

#include "obs/event_sink.h"
#include "obs/trace.h"

namespace tx::ppl {

void TraceMessenger::postprocess_message(SampleMsg& msg) {
  SiteRecord rec;
  rec.name = msg.name;
  rec.distribution = msg.distribution;
  rec.value = msg.value;
  rec.is_observed = msg.is_observed;
  rec.scale = msg.scale;
  rec.mask = msg.mask;
  trace_.add(std::move(rec));
}

void ReplayMessenger::process_message(SampleMsg& msg) {
  if (msg.is_observed) return;
  if (!trace_->contains(msg.name)) return;
  msg.value = trace_->at(msg.name).value;
  msg.done = true;
}

void ConditionMessenger::process_message(SampleMsg& msg) {
  auto it = data_.find(msg.name);
  if (it == data_.end()) return;
  msg.value = it->second;
  msg.is_observed = true;
  msg.done = true;
}

void MaskMessenger::process_message(SampleMsg& msg) {
  if (!expose_.empty() &&
      std::find(expose_.begin(), expose_.end(), msg.name) == expose_.end()) {
    return;
  }
  if (msg.mask.defined()) {
    msg.mask = mul(msg.mask, mask_);
  } else {
    msg.mask = mask_;
  }
}

BlockMessenger BlockMessenger::hiding(std::vector<std::string> names) {
  return BlockMessenger([names = std::move(names)](const SampleMsg& msg) {
    return std::find(names.begin(), names.end(), msg.name) != names.end();
  });
}

BlockMessenger BlockMessenger::exposing(std::vector<std::string> names) {
  return BlockMessenger([names = std::move(names)](const SampleMsg& msg) {
    return std::find(names.begin(), names.end(), msg.name) == names.end();
  });
}

void BlockMessenger::process_message(SampleMsg& msg) {
  if (hide_fn_(msg)) {
    msg.stop = true;
    msg.infer_hidden = true;
  }
}

Trace trace_fn(const std::function<void()>& fn) {
  TraceMessenger tm;
  {
    HandlerScope scope(tm);
    fn();
  }
  return std::move(tm.trace());
}

void TracingMessenger::postprocess_message(SampleMsg& msg) {
  if (!obs::tracing()) return;
  ++sites_traced_;
  obs::Event args;
  args.set("site", msg.name);
  args.set("kind", msg.is_observed ? "observe" : "sample");
  if (msg.value.defined()) args.set("numel", msg.value.numel());
  obs::trace_instant("ppl." + msg.name, args.to_json());
}

}  // namespace tx::ppl
