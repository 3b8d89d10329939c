#include "fault/fault_injector.h"

#include <sstream>
#include <stdexcept>

#include "dmf/parse.h"
#include "obs/scope.h"

namespace dmf::fault {

std::string_view faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSplitImbalance: return "split";
    case FaultKind::kDropletLoss: return "loss";
    case FaultKind::kDispenseFail: return "dispense";
    case FaultKind::kElectrodeDead: return "electrode";
  }
  return "unknown";
}

bool FaultSpec::any() const {
  return splitRate > 0.0 || lossRate > 0.0 || dispenseRate > 0.0 ||
         electrodeRate > 0.0;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  for (const std::string& item : splitList(text, ',', "fault spec")) {
    const auto [key, valueText] = splitField(item);
    const double value = readFinite(valueText, "fault spec: " + key);
    const bool isEps = key == "eps";
    if (value < 0.0 || value > 1.0 || (isEps && value == 0.0)) {
      throw std::invalid_argument("fault spec: \"" + key + "\" must be in " +
                                  (isEps ? "(0, 1]" : "[0, 1]"));
    }
    if (key == "split") {
      spec.splitRate = value;
    } else if (key == "eps") {
      spec.splitEps = value;
    } else if (key == "loss") {
      spec.lossRate = value;
    } else if (key == "dispense") {
      spec.dispenseRate = value;
    } else if (key == "electrode") {
      spec.electrodeRate = value;
    } else {
      throw std::invalid_argument(
          "fault spec: unknown key \"" + key +
          "\" (expected split, eps, loss, dispense, electrode)");
    }
  }
  return spec;
}

std::string FaultSpec::toString() const {
  std::ostringstream out;
  const char* sep = "";
  auto emit = [&](const char* key, double value) {
    out << sep << key << '=' << value;
    sep = ",";
  };
  if (splitRate > 0.0) {
    emit("split", splitRate);
    emit("eps", splitEps);
  }
  if (lossRate > 0.0) emit("loss", lossRate);
  if (dispenseRate > 0.0) emit("dispense", dispenseRate);
  if (electrodeRate > 0.0) emit("electrode", electrodeRate);
  return out.str();
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), rng_(seed) {}

double FaultInjector::draw() {
  // 53 uniform mantissa bits -> [0, 1); identical on every standard library.
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

bool FaultInjector::splitErrs(double& epsOut) {
  if (draw() >= spec_.splitRate) return false;
  // Second draw picks the magnitude; (0, splitEps] so a fired fault is
  // never a no-op.
  epsOut = (1.0 - draw()) * spec_.splitEps;
  return true;
}

bool FaultInjector::dropletLost() { return draw() < spec_.lossRate; }

bool FaultInjector::dispenseFails() { return draw() < spec_.dispenseRate; }

bool FaultInjector::electrodeDies() { return draw() < spec_.electrodeRate; }

chip::Cell FaultInjector::pickCell(int width, int height) {
  const auto cells = static_cast<std::uint64_t>(width) *
                     static_cast<std::uint64_t>(height);
  const auto index = static_cast<std::int64_t>(
      draw() * static_cast<double>(cells));
  return chip::Cell{static_cast<int>(index % width),
                    static_cast<int>(index / width)};
}

void FaultInjector::record(FaultEvent event) {
  if (obs::enabled()) {
    const std::string name =
        "fault.injected." + std::string(faultKindName(event.kind));
    obs::count(name.c_str());
  }
  events_.push_back(std::move(event));
}

std::uint64_t FaultInjector::count(FaultKind kind) const {
  std::uint64_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

}  // namespace dmf::fault
