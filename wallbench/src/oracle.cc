#include "oracle.h"

#include <algorithm>
#include <cctype>

namespace wallbench {

namespace {

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '{' || c == '}' || c == '.') {
      out.emplace_back(1, c);
      ++i;
    } else {
      size_t j = i;
      while (j < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[j])) &&
             text[j] != '{' && text[j] != '}') {
        ++j;
      }
      // A trailing '.' ends the pattern, not the term.
      size_t end = j;
      if (end > i + 1 && text[end - 1] == '.') --end;
      out.emplace_back(text.substr(i, end - i));
      i = end;
    }
  }
  return out;
}

bool Upper(const std::string& tok, const char* word) {
  std::string u = tok;
  for (char& c : u) c = static_cast<char>(std::toupper(c));
  return u == word;
}

}  // namespace

bool ParseBgp(std::string_view text,
              const std::vector<std::pair<std::string, std::string>>& bindings,
              Bgp* out, std::string* error) {
  *out = Bgp{};
  const std::vector<std::string> toks = Tokenize(text);
  size_t i = 0;
  if (toks.empty() || !Upper(toks[0], "SELECT")) {
    *error = "expected SELECT";
    return false;
  }
  for (i = 1; i < toks.size() && toks[i][0] == '?'; ++i) {
    out->select.push_back(toks[i].substr(1));
  }
  if (out->select.empty() || i + 1 >= toks.size() ||
      !Upper(toks[i], "WHERE") || toks[i + 1] != "{") {
    *error = "expected ?vars WHERE {";
    return false;
  }
  i += 2;
  while (i < toks.size() && toks[i] != "}") {
    std::array<PatternTerm, 3> pat;
    for (int pos = 0; pos < 3; ++pos, ++i) {
      if (i >= toks.size() || toks[i] == "." || toks[i] == "}") {
        *error = "short pattern";
        return false;
      }
      const std::string& t = toks[i];
      if (t[0] == '?') {
        pat[pos] = {true, t.substr(1)};
      } else if (t[0] == '$') {
        const std::string name = t.substr(1);
        auto it = std::find_if(bindings.begin(), bindings.end(),
                               [&](const auto& b) { return b.first == name; });
        if (it == bindings.end()) {
          *error = "unbound parameter $" + name;
          return false;
        }
        pat[pos] = {false, it->second};
      } else {
        pat[pos] = {false, t};
      }
    }
    if (pat[1].is_var) {
      *error = "variable predicate";
      return false;
    }
    out->patterns.push_back(std::move(pat));
    if (i < toks.size() && toks[i] == ".") ++i;
  }
  if (i >= toks.size() || out->patterns.empty()) {
    *error = "expected patterns and '}'";
    return false;
  }
  return true;
}

uint32_t Oracle::Intern(std::string_view term) {
  auto [it, fresh] =
      ids_.emplace(std::string(term), static_cast<uint32_t>(terms_.size()));
  if (fresh) {
    terms_.emplace_back(term);
    uses_.push_back(0);
  }
  return it->second;
}

uint32_t Oracle::Find(std::string_view term) const {
  auto it = ids_.find(std::string(term));
  return it == ids_.end() ? kNone : it->second;
}

bool Oracle::Insert(std::string_view s, std::string_view p,
                    std::string_view o) {
  const Key k{Intern(s), Intern(p), Intern(o)};
  if (!triples_.insert(k).second) return false;
  ++uses_[k.s];
  ++uses_[k.p];
  ++uses_[k.o];
  index_dirty_ = true;
  return true;
}

bool Oracle::Delete(std::string_view s, std::string_view p,
                    std::string_view o) {
  const Key k{Find(s), Find(p), Find(o)};
  if (k.s == kNone || k.p == kNone || k.o == kNone) return false;
  if (triples_.erase(k) == 0) return false;
  --uses_[k.s];
  --uses_[k.p];
  --uses_[k.o];
  index_dirty_ = true;
  return true;
}

bool Oracle::TermLive(std::string_view term) const {
  const uint32_t id = Find(term);
  return id != kNone && uses_[id] > 0;
}

std::vector<std::array<std::string, 3>> Oracle::TriplesMentioning(
    std::string_view term) const {
  std::vector<std::array<std::string, 3>> out;
  const uint32_t id = Find(term);
  if (id == kNone) return out;
  for (const Key& k : triples_) {
    if (k.s == id || k.o == id) {
      out.push_back({terms_[k.s], terms_[k.p], terms_[k.o]});
    }
  }
  // Set iteration order is unspecified; sort so the log is reproducible.
  std::sort(out.begin(), out.end());
  return out;
}

Rows Oracle::Evaluate(const Bgp& bgp) {
  if (index_dirty_) {
    by_predicate_.clear();
    for (const Key& k : triples_) by_predicate_[k.p].push_back(k);
    index_dirty_ = false;
  }
  std::vector<std::string> vars;  // columns of `table`
  std::vector<uint32_t> table;    // row-major, vars.size() per row
  size_t rows = 0;
  auto column_of = [&vars](const std::string& v) -> int {
    for (size_t c = 0; c < vars.size(); ++c) {
      if (vars[c] == v) return static_cast<int>(c);
    }
    return -1;
  };

  for (size_t pi = 0; pi < bgp.patterns.size(); ++pi) {
    const auto& pat = bgp.patterns[pi];
    // The pattern's matches, as (subject, object) pairs.
    std::vector<std::pair<uint32_t, uint32_t>> matches;
    const uint32_t pred = Find(pat[1].text);
    const uint32_t s_const = pat[0].is_var ? kNone : Find(pat[0].text);
    const uint32_t o_const = pat[2].is_var ? kNone : Find(pat[2].text);
    const bool dead_const = (!pat[0].is_var && s_const == kNone) ||
                            (!pat[2].is_var && o_const == kNone);
    auto it = by_predicate_.find(pred);
    if (pred != kNone && !dead_const && it != by_predicate_.end()) {
      for (const Key& k : it->second) {
        if (!pat[0].is_var && k.s != s_const) continue;
        if (!pat[2].is_var && k.o != o_const) continue;
        if (pat[0].is_var && pat[2].is_var && pat[0].text == pat[2].text &&
            k.s != k.o) {
          continue;
        }
        matches.emplace_back(k.s, k.o);
      }
    }

    // Variables the pattern binds: position 0 = subject, 2 = object.
    std::vector<std::pair<int, std::string>> pvars;
    if (pat[0].is_var) pvars.emplace_back(0, pat[0].text);
    if (pat[2].is_var && !(pat[0].is_var && pat[0].text == pat[2].text)) {
      pvars.emplace_back(2, pat[2].text);
    }
    auto value = [](const std::pair<uint32_t, uint32_t>& m, int pos) {
      return pos == 0 ? m.first : m.second;
    };

    if (pi == 0) {
      for (const auto& [pos, name] : pvars) vars.push_back(name);
      for (const auto& m : matches) {
        for (const auto& [pos, name] : pvars) table.push_back(value(m, pos));
      }
      rows = matches.size();
      continue;
    }

    // Hash join: build on the pattern's matches keyed by the shared
    // variables, probe with every row of the running table.
    std::vector<std::pair<int, int>> shared;  // (pattern pos, table column)
    std::vector<std::pair<int, std::string>> fresh;
    for (const auto& pv : pvars) {
      const int c = column_of(pv.second);
      if (c >= 0) {
        shared.emplace_back(pv.first, c);
      } else {
        fresh.push_back(pv);
      }
    }
    auto match_key = [&](const std::pair<uint32_t, uint32_t>& m) {
      uint64_t key = 0;
      for (const auto& [pos, col] : shared) key = (key << 32) | value(m, pos);
      return key;
    };
    std::unordered_map<uint64_t, std::vector<uint32_t>> build;
    for (size_t mi = 0; mi < matches.size(); ++mi) {
      build[match_key(matches[mi])].push_back(static_cast<uint32_t>(mi));
    }
    const size_t width = vars.size();
    std::vector<uint32_t> next;
    size_t next_rows = 0;
    for (size_t r = 0; r < rows; ++r) {
      const uint32_t* row = &table[r * width];
      uint64_t key = 0;
      for (const auto& [pos, col] : shared) key = (key << 32) | row[col];
      auto hit = build.find(key);
      if (hit == build.end()) continue;
      for (const uint32_t mi : hit->second) {
        next.insert(next.end(), row, row + width);
        for (const auto& [pos, name] : fresh) {
          next.push_back(value(matches[mi], pos));
        }
        ++next_rows;
      }
    }
    for (const auto& [pos, name] : fresh) vars.push_back(name);
    table.swap(next);
    rows = next_rows;
  }

  std::vector<int> proj;
  for (const std::string& v : bgp.select) proj.push_back(column_of(v));
  Rows out;
  out.reserve(rows);
  const size_t width = vars.size();
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(proj.size());
    for (const int c : proj) {
      row.push_back(c >= 0 ? terms_[table[r * width + c]] : std::string());
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wallbench
