#include "graph/io.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>

#include "graph/builder.hpp"
#include "graph/storage.hpp"
#include "util/assert.hpp"

namespace cobra::graph {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << "# " << g.name() << '\n';
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors(u))
      if (u < v) os << u << ' ' << v << '\n';
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  COBRA_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_edge_list(g, out);
  COBRA_CHECK_MSG(out.good(), "write failed for " << path);
}

namespace {

// Splits `line` into whitespace-separated tokens, parsing each as u64.
// On a bad token, reports it verbatim with its position.
struct LineTokens {
  std::uint64_t values[2] = {0, 0};
  int count = 0;  // tokens seen (stops counting at 3)
};

LineTokens parse_line(std::string_view line, const std::string& context,
                      std::uint64_t line_number) {
  LineTokens out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' ||
                                 line[pos] == '\r'))
      ++pos;
    if (pos >= line.size()) break;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r')
      ++end;
    const std::string_view token = line.substr(pos, end - pos);
    if (out.count < 2) {
      std::uint64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      COBRA_CHECK_MSG(ec == std::errc() && ptr == token.data() + token.size(),
                      context << " line " << line_number << ": bad token '"
                              << token << "' (expected a non-negative "
                              << "integer)");
      out.values[out.count] = value;
    }
    ++out.count;
    pos = end;
  }
  return out;
}

}  // namespace

EdgeListHeader scan_edge_list(
    std::istream& is, const std::string& context,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(VertexId, VertexId)>& edge) {
  EdgeListHeader header;
  bool have_header = false;
  std::uint64_t edges_seen = 0;
  std::uint64_t line_number = 0;
  std::string line;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const LineTokens tokens = parse_line(line, context, line_number);
    if (tokens.count == 0) continue;  // whitespace-only line
    COBRA_CHECK_MSG(tokens.count == 2,
                    context << " line " << line_number << ": expected two "
                            << "fields, got " << tokens.count << " in '"
                            << line << "'");
    if (!have_header) {
      header.n = tokens.values[0];
      header.m = tokens.values[1];
      COBRA_CHECK_MSG(header.n >= 1 && header.n <= 0xFFFFFFFFull,
                      context << " line " << line_number
                              << ": vertex count " << header.n
                              << " out of range [1, 2^32 - 1]");
      // Both refusals come before on_header sizes anything by the header.
      const std::uint64_t max_edges = header.n * (header.n - 1) / 2;
      COBRA_CHECK_MSG(header.m <= max_edges,
                      context << " line " << line_number << ": header claims "
                              << header.m << " edges, more than the "
                              << max_edges << " a simple graph on "
                              << header.n << " vertices can have");
      check_csr_fits(context + " line " + std::to_string(line_number) +
                         ": header '" + std::to_string(header.n) + " " +
                         std::to_string(header.m) + "'",
                     static_cast<double>(header.n),
                     static_cast<double>(header.m));
      have_header = true;
      if (on_header) on_header(header);
      continue;
    }
    const std::uint64_t u = tokens.values[0];
    const std::uint64_t v = tokens.values[1];
    COBRA_CHECK_MSG(u < header.n && v < header.n,
                    context << " line " << line_number << ": endpoint "
                            << (u < header.n ? v : u)
                            << " out of range (n = " << header.n << ")");
    COBRA_CHECK_MSG(u != v, context << " line " << line_number
                                    << ": self-loop " << u << " " << v
                                    << " (simple graphs only)");
    edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    ++edges_seen;
  }
  COBRA_CHECK_MSG(have_header,
                  context << ": missing 'n m' header line");
  COBRA_CHECK_MSG(edges_seen == header.m,
                  context << ": header claims " << header.m
                          << " edges, found " << edges_seen);
  return header;
}

namespace {

// Errors name `context` (the path, for files); the graph is named `name`.
Graph build_edge_list(std::istream& is, const std::string& context,
                      const std::string& name) {
  std::optional<GraphBuilder> builder;
  scan_edge_list(
      is, context,
      [&](const EdgeListHeader& header) {
        builder.emplace(static_cast<VertexId>(header.n));
        builder->reserve(header.m);
      },
      [&](VertexId u, VertexId v) { builder->add_edge(u, v); });
  return std::move(*builder).build(name);
}

}  // namespace

Graph read_edge_list(std::istream& is, const std::string& name) {
  return build_edge_list(is, name, name);
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  COBRA_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  return build_edge_list(in, path,
                         std::filesystem::path(path).stem().string());
}

}  // namespace cobra::graph
