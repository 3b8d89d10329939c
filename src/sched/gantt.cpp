#include "sched/gantt.h"

#include <algorithm>
#include <vector>

namespace dmf::sched {

using forest::TaskForest;
using forest::TaskId;

namespace {

std::string pad(std::string text, std::size_t width) {
  if (text.size() < width) {
    text.insert(0, width - text.size(), ' ');
  }
  return text;
}

}  // namespace

std::string renderGantt(const TaskForest& forest, const Schedule& s) {
  const unsigned tc = s.completionTime;
  std::vector<std::vector<std::string>> cells(
      s.mixerCount, std::vector<std::string>(tc + 1));
  std::size_t width = 5;
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    std::string label = forest.taskLabel(id);
    width = std::max(width, label.size() + 1);
    cells[s.mixers[id]][s.cycles[id]] = std::move(label);
  }

  const std::vector<unsigned> storage = storageProfile(forest, s);
  std::vector<unsigned> emitted(tc + 1, 0);
  for (unsigned cycle : emissionCycles(forest, s)) {
    ++emitted[cycle];
  }

  std::string out = pad("t", width);
  for (unsigned t = 1; t <= tc; ++t) {
    out += pad(std::to_string(t), width);
  }
  out += '\n';
  for (unsigned m = 0; m < s.mixerCount; ++m) {
    std::string mixer = "M";
    mixer += std::to_string(m + 1);
    out += pad(std::move(mixer), width);
    for (unsigned t = 1; t <= tc; ++t) {
      out += pad(cells[m][t].empty() ? "." : cells[m][t], width);
    }
    out += '\n';
  }
  out += pad("store", width);
  for (unsigned t = 1; t <= tc; ++t) {
    out += pad(std::to_string(storage[t]), width);
  }
  out += '\n';
  out += pad("emit", width);
  for (unsigned t = 1; t <= tc; ++t) {
    out += pad(emitted[t] == 0 ? "." : std::to_string(emitted[t]), width);
  }
  out += '\n';
  return out;
}

}  // namespace dmf::sched
