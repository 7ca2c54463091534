#include "sim/schedule.hpp"

#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/parse_number.hpp"

namespace specstab {

std::string schedule_to_text(const Schedule& schedule) {
  std::ostringstream os;
  for (const auto& action : schedule) {
    for (std::size_t i = 0; i < action.size(); ++i) {
      if (i > 0) os << ' ';
      os << action[i];
    }
    os << '\n';
  }
  return os.str();
}

Schedule schedule_from_text(const std::string& text) {
  Schedule schedule;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) {
      throw std::invalid_argument(
          "schedule: empty action line (every action activates at least "
          "one vertex)");
    }
    std::istringstream ls(line);
    std::vector<VertexId> action;
    for (std::string token; ls >> token;) {
      VertexId v = 0;
      if (parse_number(token, v) != std::errc()) {
        throw std::invalid_argument("schedule: bad token in line '" + line +
                                    "'");
      }
      action.push_back(v);
    }
    if (action.empty()) {
      throw std::invalid_argument("schedule: no vertices in line '" + line +
                                  "'");
    }
    schedule.push_back(std::move(action));
  }
  return schedule;
}

}  // namespace specstab
