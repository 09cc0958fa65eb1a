#include "reactor/tag.hpp"

namespace dear::reactor {

std::string Tag::to_string() const {
  // Appended piecewise: gcc 12 at -O3 reports a false -Wrestrict on the
  // equivalent chain of operator+ temporaries.
  std::string text = "(";
  text += format_duration(time);
  text += ", ";
  text += std::to_string(microstep);
  text += ')';
  return text;
}

}  // namespace dear::reactor
