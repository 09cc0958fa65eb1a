#include "analysis/facts.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace dear::analysis {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void append_format(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) {
    out.append(buffer, std::min(static_cast<std::size_t>(written), sizeof(buffer) - 1));
  }
}

[[nodiscard]] std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

void append_index_list(std::string& out, std::span<const std::uint32_t> values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    append_format(out, "%s%u", i == 0 ? "" : ",", static_cast<unsigned>(values[i]));
  }
  out += ']';
}

void append_name_list(std::string& out, const Facts& facts, NameList list) {
  const std::span<const Name> names = facts.names(list);
  out += '[';
  for (std::size_t i = 0; i < names.size(); ++i) {
    append_format(out, "%s\"%s\"", i == 0 ? "" : ",",
                  json_escape(facts.text(names[i])).c_str());
  }
  out += ']';
}

}  // namespace

Name Facts::add_text(std::string_view text) {
  const Name name{static_cast<std::uint32_t>(text_pool.size()),
                  static_cast<std::uint32_t>(text.size())};
  text_pool.append(text);
  return name;
}

IndexList Facts::add_list(std::span<const std::uint32_t> indices) {
  const IndexList list{static_cast<std::uint32_t>(index_pool.size()),
                       static_cast<std::uint32_t>(indices.size())};
  index_pool.insert(index_pool.end(), indices.begin(), indices.end());
  return list;
}

NameList Facts::add_names(std::span<const std::string> names) {
  const NameList list{static_cast<std::uint32_t>(name_pool.size()),
                      static_cast<std::uint32_t>(names.size())};
  for (const std::string& name : names) {
    name_pool.push_back(add_text(name));
  }
  return list;
}

std::vector<StateFact> Facts::states() const {
  // std::map: state cells sorted by name so the derived table is
  // independent of declaration order.
  std::map<std::string, StateFact> cells;
  for (std::uint32_t i = 0; i < reactions.size(); ++i) {
    for (const Name name : names(reactions[i].state_reads)) {
      auto& cell = cells[std::string(text(name))];
      cell.name = text(name);
      cell.readers.push_back(i);
    }
    for (const Name name : names(reactions[i].state_writes)) {
      auto& cell = cells[std::string(text(name))];
      cell.name = text(name);
      cell.writers.push_back(i);
    }
  }
  std::vector<StateFact> out;
  out.reserve(cells.size());
  for (auto& [name, cell] : cells) {
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<NodeLevels> Facts::levels_by_node() const {
  std::vector<NodeLevels> nodes;
  for (const ReactionFact& reaction : reactions) {
    const std::string_view name = text(reaction.node);
    auto node = std::find_if(nodes.begin(), nodes.end(),
                             [name](const NodeLevels& candidate) { return candidate.node == name; });
    if (node == nodes.end()) {
      node = nodes.insert(nodes.end(), NodeLevels{std::string(name), {}});
    }
    if (reaction.level < 0) {
      continue;
    }
    const auto level = static_cast<std::size_t>(reaction.level);
    if (node->levels.size() <= level) {
      node->levels.resize(level + 1);
    }
    node->levels[level].emplace_back(text(reaction.fqn));
  }
  return nodes;
}

std::string Facts::level_table() const {
  std::string out;
  for (const NodeLevels& node : levels_by_node()) {
    for (std::size_t level = 0; level < node.levels.size(); ++level) {
      if (node.levels[level].empty()) {
        continue;
      }
      out += node.node;
      append_format(out, "/L%zu:", level);
      for (const std::string& fqn : node.levels[level]) {
        out += ' ';
        out += fqn;
      }
      out += '\n';
    }
  }
  return out;
}

std::string Facts::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += pad + "{\n";
  append_format(out, "%s  \"workload\": \"%s\",\n", pad.c_str(), json_escape(workload).c_str());
  append_format(out, "%s  \"level_count\": %d,\n", pad.c_str(), level_count);

  out += pad + "  \"reactions\": [\n";
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    const ReactionFact& r = reactions[i];
    append_format(out, "%s    {\"node\": \"%s\", \"fqn\": \"%s\", \"level\": %d, ",
                  pad.c_str(), json_escape(text(r.node)).c_str(),
                  json_escape(text(r.fqn)).c_str(), r.level);
    append_format(out, "\"entry\": %s, \"deadline_ns\": %" PRId64 ", \"wcet_ns\": %" PRId64 ", ",
                  r.entry ? "true" : "false", static_cast<std::int64_t>(r.deadline),
                  static_cast<std::int64_t>(r.wcet));
    out += "\"triggers\": ";
    append_index_list(out, list(r.triggers));
    out += ", \"reads\": ";
    append_index_list(out, list(r.reads));
    out += ", \"effects\": ";
    append_index_list(out, list(r.effects));
    out += ", \"trigger_actions\": ";
    append_name_list(out, *this, r.trigger_actions);
    out += ", \"depends_on\": ";
    append_index_list(out, list(r.depends_on));
    out += ", \"state_reads\": ";
    append_name_list(out, *this, r.state_reads);
    out += ", \"state_writes\": ";
    append_name_list(out, *this, r.state_writes);
    append_format(out, "}%s\n", i + 1 < reactions.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"ports\": [\n";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const PortFact& p = ports[i];
    append_format(out, "%s    {\"node\": \"%s\", \"fqn\": \"%s\", \"writers\": ", pad.c_str(),
                  json_escape(text(p.node)).c_str(), json_escape(text(p.fqn)).c_str());
    append_index_list(out, list(p.writers));
    out += ", \"readers\": ";
    append_index_list(out, list(p.readers));
    append_format(out, "}%s\n", i + 1 < ports.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"channels\": [\n";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelFact& c = channels[i];
    append_format(out,
                  "%s    {\"member\": \"%s\", \"server\": \"%s\", \"client\": \"%s\", "
                  "\"latency_bound_ns\": %" PRId64 ", \"deadline_ns\": %" PRId64
                  ", \"clock_error_ns\": %" PRId64 ", \"tagged\": %s}%s\n",
                  pad.c_str(), json_escape(c.member).c_str(), json_escape(c.server_node).c_str(),
                  json_escape(c.client_node).c_str(), static_cast<std::int64_t>(c.latency_bound),
                  static_cast<std::int64_t>(c.deadline), static_cast<std::int64_t>(c.clock_error),
                  c.tagged ? "true" : "false", i + 1 < channels.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"budgets\": [\n";
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const BudgetFact& b = budgets[i];
    append_format(out,
                  "%s    {\"member\": \"%s\", \"node\": \"%s\", \"budget_ns\": %" PRId64 "}%s\n",
                  pad.c_str(), json_escape(b.member).c_str(), json_escape(b.node).c_str(),
                  static_cast<std::int64_t>(b.budget), i + 1 < budgets.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"states\": [\n";
  const std::vector<StateFact> cells = states();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    append_format(out, "%s    {\"name\": \"%s\", \"readers\": ", pad.c_str(),
                  json_escape(cells[i].name).c_str());
    append_index_list(out, cells[i].readers);
    out += ", \"writers\": ";
    append_index_list(out, cells[i].writers);
    append_format(out, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"cycles\": [\n";
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    out += pad + "    ";
    append_index_list(out, cycles[i]);
    append_format(out, "%s\n", i + 1 < cycles.size() ? "," : "");
  }
  out += pad + "  ],\n";

  out += pad + "  \"level_table\": \"" + json_escape(level_table()) + "\"\n";
  out += pad + "}";
  return out;
}

std::uint64_t Facts::digest() const { return fnv1a64(to_json()); }

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace dear::analysis
