#include "analysis/app_facts.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "analysis/extract.hpp"
#include "dear/app_builder.hpp"

namespace dear::analysis {

namespace {

/// Strips the hosting node's name prefix from a transactor name
/// ("preproc.VideoAdapter.frame" → "VideoAdapter.frame").
[[nodiscard]] std::string_view member_suffix(const AppBuilder::TransactorRecord& record) {
  const std::string_view name = record.transactor->name();
  const std::string_view node = record.node->name();
  if (name.size() > node.size() && name.starts_with(node) && name[node.size()] == '.') {
    return name.substr(node.size() + 1);
  }
  return name;
}

}  // namespace

Facts extract_app(const AppBuilder& app) {
  std::vector<NodeContext> contexts;
  contexts.reserve(app.nodes().size());
  for (const auto& node : app.nodes()) {
    contexts.push_back(NodeContext{node->name(), &node->environment()});
  }
  Facts facts = extract(contexts);
  facts.workload = "app";

  // Cross-binding channels: every client-side member transactor pairs
  // with the server-side transactor of the same <Interface>.<member>.
  // Declaration order (servers first, per the AppBuilder contract) keeps
  // the table deterministic.
  const auto& records = app.transactor_records();
  facts.channels.reserve(static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(), [](const auto& r) { return !r.server; })));
  facts.budgets.reserve(app.budget_records().size());
  for (const auto& client : records) {
    if (client.server) {
      continue;
    }
    const std::string_view suffix = member_suffix(client);
    for (const auto& server : records) {
      if (!server.server || member_suffix(server) != suffix) {
        continue;
      }
      ChannelFact channel;
      channel.member = std::string(suffix);
      channel.server_node = server.node->name();
      channel.client_node = client.node->name();
      channel.latency_bound = client.transactor->config().latency_bound;
      channel.deadline = server.transactor->config().deadline;
      channel.clock_error = client.transactor->config().clock_error_bound;
      channel.tagged = true;
      facts.channels.push_back(std::move(channel));
      break;
    }
  }

  // End-to-end budgets declared on served descriptors (declaration order).
  for (const auto& budget : app.budget_records()) {
    facts.budgets.push_back(BudgetFact{budget.member, budget.node->name(), budget.budget});
  }
  return facts;
}

}  // namespace dear::analysis
