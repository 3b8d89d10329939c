#include "chip/pcr_layout.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dmf::chip {

namespace {

// "R3", "M1", "q2", ...: a module kind's letter and its 1-based index.
std::string moduleLabel(char kind, std::size_t index) {
  std::string label(1, kind);
  label += std::to_string(index);
  return label;
}

}  // namespace

Layout synthesizeLayout(std::size_t fluidCount, unsigned mixerCount,
                        unsigned storageCount) {
  if (fluidCount == 0 || mixerCount == 0) {
    throw std::invalid_argument(
        "synthesizeLayout: need at least one fluid and one mixer");
  }
  // Edge capacity requirements: reservoirs sit every 3 cells on the top and
  // bottom edges, mixers every 5 cells in the middle band, storage every 2
  // cells on its own row.
  const std::size_t perEdge = (fluidCount + 1) / 2;
  const int width = std::max<int>(
      {13, static_cast<int>(3 * perEdge + 2),
       static_cast<int>(5 * mixerCount + 2),
       static_cast<int>(2 * storageCount + 2)});
  const int height = 12;
  Layout layout(width, height);

  for (std::size_t f = 0; f < fluidCount; ++f) {
    const bool top = f < perEdge;
    const std::size_t slot = top ? f : f - perEdge;
    layout.add(Module{ModuleKind::kReservoir,
                      Cell{static_cast<int>(1 + 3 * slot), top ? 0 : height - 1},
                      1, 1, f, moduleLabel('R', f + 1)});
  }
  for (unsigned m = 0; m < mixerCount; ++m) {
    layout.add(Module{ModuleKind::kMixer,
                      Cell{static_cast<int>(2 + 5 * m), 3}, 2, 2, 0,
                      moduleLabel('M', m + 1)});
  }
  for (unsigned s = 0; s < storageCount; ++s) {
    layout.add(Module{ModuleKind::kStorage,
                      Cell{static_cast<int>(1 + 2 * s), 7}, 1, 1, 0,
                      moduleLabel('q', s + 1)});
  }
  layout.add(Module{ModuleKind::kWaste, Cell{0, 5}, 1, 1, 0, "W1"});
  layout.add(Module{ModuleKind::kWaste, Cell{width - 1, 5}, 1, 1, 0, "W2"});
  layout.add(Module{ModuleKind::kOutput, Cell{width - 1, 9}, 1, 1, 0, "O"});
  return layout;
}

Layout makePcrLayout() { return synthesizeLayout(7, 3, 5); }

}  // namespace dmf::chip
