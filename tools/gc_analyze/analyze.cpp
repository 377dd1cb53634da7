#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <set>

#include "model.hpp"

namespace gc::analyze {

namespace {

using tool::find_ident;
using tool::ident_char;
using tool::trim;

constexpr std::size_t npos = std::string::npos;

const std::vector<Rule> kRules = {
    {"GCA101", "guarded-member-access", Severity::kError,
     "guarded member touched without its mutex held",
     "take the guard (std::lock_guard / std::unique_lock on the declared "
     "mutex) or move the access into a GC_REQUIRES helper"},
    {"GCA102", "lock-order-cycle", Severity::kError,
     "mutex acquisition order forms a cycle (or a mutex is re-acquired "
     "while held)",
     "acquire in the canonical GC_ACQUIRED_BEFORE order, or drop the outer "
     "lock before taking the inner one"},
    {"GCA103", "blocking-under-lock", Severity::kError,
     "blocking call while holding a mutex not annotated GC_ALLOWS_BLOCKING",
     "release the lock before blocking, or annotate the mutex "
     "GC_ALLOWS_BLOCKING with a comment explaining why that is safe"},
    {"GCA104", "unlocked-public-method", Severity::kError,
     "public method of an annotated class locks nothing yet touches "
     "guarded state",
     "lock the declared mutex in the method body, or mark the method "
     "GC_REQUIRES(mu) and make the callers hold it"},
};

const Rule* rule_by_id(const char* id) {
  for (const Rule& r : kRules) {
    if (std::strcmp(r.id, id) == 0) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small scanning helpers over the flattened code view.

std::size_t skip_ws(const std::string& s, std::size_t p) {
  while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
  return p;
}

std::size_t skip_balanced(const std::string& s, std::size_t open, char oc,
                          char cc) {
  int depth = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    if (s[p] == oc) ++depth;
    if (s[p] == cc && --depth == 0) return p + 1;
  }
  return npos;
}

/// Identifier ending at `end` (exclusive), scanning backwards over
/// nothing but identifier characters.
std::string ident_ending_at(const std::string& s, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, end - b);
}

/// Splits a balanced argument list s(open..close) on top-level commas.
std::vector<std::string> split_args(const std::string& s, std::size_t open,
                                    std::size_t close) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (std::size_t p = open + 1; p + 1 <= close && p < s.size(); ++p) {
    const char c = s[p];
    if (c == '(' || c == '{' || c == '[' || c == '<') ++depth;
    if (c == ')' || c == '}' || c == ']' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      if (!trim(cur).empty()) args.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trim(cur).empty()) args.push_back(trim(cur));
  return args;
}

bool is_lock_tag(const std::string& a) {
  return a.find("defer_lock") != npos || a.find("adopt_lock") != npos ||
         a.find("try_to_lock") != npos;
}

// ---------------------------------------------------------------------------
// Analyzer context.

struct AnalyzedFile {
  SourceFile src;
  ParsedFile parsed;
};

struct Ctx {
  std::vector<AnalyzedFile> files;
  Model model;
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;

  const ClassInfo* cls(const std::string& name) const {
    auto it = model.classes.find(name);
    return it == model.classes.end() ? nullptr : &it->second;
  }

  /// True when `node` ("Class::mu") names a declared mutex member.
  const MutexInfo* mutex(const std::string& node) const {
    const std::size_t sep = node.find("::");
    if (sep == npos) return nullptr;
    const ClassInfo* ci = cls(node.substr(0, sep));
    if (!ci) return nullptr;
    auto it = ci->mutexes.find(node.substr(sep + 2));
    return it == ci->mutexes.end() ? nullptr : &it->second;
  }

  void report(int file, std::size_t pos, const char* rule_id,
              const std::string& message) {
    const AnalyzedFile& af = files[static_cast<std::size_t>(file)];
    int line = 0, col = 0;
    af.parsed.flat.locate(pos, &line, &col);
    const std::string& raw =
        af.parsed.flat.view.raw[static_cast<std::size_t>(line - 1)];
    // Inline suppression, same shape as gc_lint's (the marker is split so
    // this source never suppresses itself).
    const std::string marker =
        std::string("gc_analyze: ") + "allow(" + rule_id + ")";
    if (raw.find(marker) != npos) return;
    findings.push_back(
        {rule_by_id(rule_id), af.src.path, line, col, message});
  }

  void edge(const std::string& from, const std::string& to,
            const char* why, int file, std::size_t pos) {
    const AnalyzedFile& af = files[static_cast<std::size_t>(file)];
    int line = 0, col = 0;
    af.parsed.flat.locate(pos, &line, &col);
    edges.push_back({from, to, why, af.src.path, line});
  }
};

// ---------------------------------------------------------------------------
// Per-function walk state.

struct Region {
  std::string lock_var;
  std::vector<std::string> nodes;  ///< resolved mutex nodes (see below)
  int depth;                       ///< brace depth at declaration
  bool held;
  bool scoped;  ///< scoped_lock: no ordering edges among its own mutexes
};

/// Node naming: known members resolve to "Class::mu"; local mutexes to
/// "$local:name" (held-tracked, never graphed); unresolvable expressions
/// to "$expr:text" (held-tracked, never graphed).
bool graphable(const std::string& node) { return node[0] != '$'; }

struct Walk {
  Ctx* ctx;
  int file;
  const Scope* fn;
  std::string cls;                       ///< owning class ("" for free fns)
  const ClassInfo* ci = nullptr;         ///< null for free functions
  const MethodInfo* mi = nullptr;        ///< declared contract, if any
  std::vector<std::string> requires_held;
  std::map<std::string, std::string> params;  ///< name -> type text
  std::map<std::string, std::string> locals;  ///< name -> model class
  std::set<std::string> local_mutexes;
  std::vector<Region> regions;
  bool any_region = false;
  /// Guarded-member accesses lacking their mutex: (pos, member, node).
  std::vector<std::tuple<std::size_t, std::string, std::string>> violations;

  std::vector<std::string> held_nodes() const {
    std::vector<std::string> out = requires_held;
    for (const Region& r : regions) {
      if (!r.held) continue;
      for (const std::string& n : r.nodes) out.push_back(n);
    }
    return out;
  }
  bool holds(const std::string& node) const {
    const auto h = held_nodes();
    return std::find(h.begin(), h.end(), node) != h.end();
  }
};

/// Resolves a mutex expression from a guard declaration to a graph node.
std::string resolve_mutex_expr(const Walk& w, std::string expr) {
  expr = trim(expr);
  if (expr.rfind("this->", 0) == 0) expr = trim(expr.substr(6));
  while (!expr.empty() && (expr[0] == '*' || expr[0] == '&')) {
    expr = trim(expr.substr(1));
  }
  const std::size_t dot = expr.find('.');
  if (dot != npos) {
    const std::string base = trim(expr.substr(0, dot));
    const std::string rest = trim(expr.substr(dot + 1));
    std::string type;
    auto lit = w.locals.find(base);
    if (lit != w.locals.end()) type = lit->second;
    if (type.empty() && w.ci) {
      auto mit = w.ci->member_types.find(base);
      if (mit != w.ci->member_types.end()) type = mit->second;
    }
    if (type.empty()) {
      auto pit = w.params.find(base);
      if (pit != w.params.end()) {
        for (const auto& [cname, unused] : w.ctx->model.classes) {
          (void)unused;
          if (find_ident(pit->second, cname) != npos) type = cname;
        }
      }
    }
    if (!type.empty()) {
      const std::string node = type + "::" + rest;
      if (w.ctx->mutex(node)) return node;
    }
    return "$expr:" + expr;
  }
  if (expr.find("::") != npos) {
    const std::string node = normalize_node(expr, w.cls);
    return w.ctx->mutex(node) ? node : "$expr:" + expr;
  }
  if (w.local_mutexes.count(expr)) return "$local:" + expr;
  if (!w.cls.empty()) {
    const std::string node = w.cls + "::" + expr;
    if (w.ctx->mutex(node)) return node;
  }
  return "$expr:" + expr;
}

/// Resolves the class of a call receiver identifier ("" when unknown).
std::string resolve_receiver(const Walk& w, const std::string& recv) {
  auto lit = w.locals.find(recv);
  if (lit != w.locals.end()) return lit->second;
  if (w.ci) {
    auto mit = w.ci->member_types.find(recv);
    if (mit != w.ci->member_types.end()) return mit->second;
  }
  auto pit = w.params.find(recv);
  if (pit != w.params.end()) {
    for (const auto& [cname, ci] : w.ctx->model.classes) {
      (void)ci;
      if (find_ident(pit->second, cname) != npos) return cname;
    }
  }
  if (w.ctx->model.classes.count(recv)) return recv;  // static-style
  return "";
}

/// Records ordering edges for acquiring `node` while `held` are held, and
/// reports re-acquisition immediately.
void record_acquisition(Walk& w, const std::vector<std::string>& held,
                        const std::string& node, std::size_t pos,
                        const char* why) {
  if (!graphable(node)) return;
  for (const std::string& h : held) {
    if (!graphable(h)) continue;
    if (h == node) {
      w.ctx->report(w.file, pos, "GCA102",
                    "'" + node + "' acquired while already held (" +
                        std::string(why) + " re-acquisition deadlocks)");
      continue;
    }
    w.ctx->edge(h, node, why, w.file, pos);
  }
}

const char* kBlockingMembers[] = {
    "recv", "barrier", "allreduce_sum", "wait_all",
    "join", "acquire", "acquire_until", "run",
};
const char* kBlockingFree[] = {
    "sleep_for", "sleep_until", "save_checkpoint", "load_checkpoint",
    "save_cluster_checkpoint", "load_cluster_checkpoint",
};
const char* kBlockingStreams[] = {"ifstream", "ofstream", "fstream"};
const char* kBlockingFs[] = {
    "remove", "remove_all", "rename", "file_size", "exists",
    "create_directories", "directory_iterator", "temp_directory_path",
    "last_write_time", "copy_file", "resize_file",
};

/// Fires GCA103 for the current held set minus `exempt` at `pos`.
void check_blocking(Walk& w, std::size_t pos, const std::string& what,
                    const std::vector<std::string>& exempt) {
  std::vector<std::string> hot;
  for (const std::string& n : w.held_nodes()) {
    if (std::find(exempt.begin(), exempt.end(), n) != exempt.end()) continue;
    const MutexInfo* mu = w.ctx->mutex(n);
    if (mu && mu->allows_blocking) continue;
    if (std::find(hot.begin(), hot.end(), n) == hot.end()) hot.push_back(n);
  }
  if (hot.empty()) return;
  std::string held_list;
  for (const std::string& n : hot) {
    if (!held_list.empty()) held_list += ", ";
    held_list += n.rfind("$local:", 0) == 0   ? n.substr(7) + " (local)"
                 : n.rfind("$expr:", 0) == 0 ? n.substr(6)
                                             : n;
  }
  w.ctx->report(w.file, pos, "GCA103",
                "blocking call '" + what + "' while holding " + held_list);
}

/// One function body. Walks [fn.open+1, fn.close) linearly, maintaining
/// brace depth and the active lock regions.
void walk_function(Ctx* ctx, int file_index, const ParsedFile& pf,
                   const Scope& fn) {
  const std::string& code = pf.flat.code;
  Walk w;
  w.ctx = ctx;
  w.file = file_index;
  w.fn = &fn;
  w.cls = fn.cls;
  w.ci = fn.cls.empty() ? nullptr : ctx->cls(fn.cls);
  if (w.ci && !fn.name.empty()) {
    auto it = w.ci->methods.find(fn.name);
    if (it != w.ci->methods.end()) w.mi = &it->second;
  }
  if (w.mi) w.requires_held = w.mi->requires_held;

  // Parameters: `Type name` pairs, last ident is the name.
  if (fn.param_close > fn.param_open) {
    for (const std::string& p :
         split_args(code, fn.param_open, fn.param_close)) {
      std::string decl = p;
      const std::size_t eq = decl.find('=');
      if (eq != npos) decl = trim(decl.substr(0, eq));
      const std::string name = ident_ending_at(decl, decl.size());
      if (!name.empty() && !std::isdigit(static_cast<unsigned char>(name[0])))
        w.params[name] = decl.substr(0, decl.size() - name.size());
    }
  }

  const bool check_guarded =
      w.ci && w.ci->annotated() && !fn.ctor_dtor && !fn.name.empty();

  int depth = 0;
  for (std::size_t pos = fn.open + 1; pos < fn.close; ++pos) {
    const char c = code[pos];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      --depth;
      // Regions die with their enclosing brace (textual scope — this is
      // what makes "early return releasing the guard" free: the guard's
      // scope simply ends).
      w.regions.erase(
          std::remove_if(w.regions.begin(), w.regions.end(),
                         [&](const Region& r) { return r.depth > depth; }),
          w.regions.end());
      continue;
    }
    if (!ident_char(c) || std::isdigit(static_cast<unsigned char>(c)) ||
        (pos > 0 && ident_char(code[pos - 1]))) {
      continue;
    }
    // An identifier starts here.
    std::size_t end = pos;
    while (end < fn.close && ident_char(code[end])) ++end;
    const std::string id = code.substr(pos, end - pos);

    // --- Guard declarations -------------------------------------------
    if (id == "lock_guard" || id == "unique_lock" || id == "scoped_lock") {
      std::size_t q = skip_ws(code, end);
      if (q < fn.close && code[q] == '<') {
        const std::size_t e = skip_balanced(code, q, '<', '>');
        if (e == npos) continue;
        q = skip_ws(code, e);
      }
      std::size_t ve = q;
      while (ve < fn.close && ident_char(code[ve])) ++ve;
      if (ve == q) continue;  // not a declaration (type mention only)
      const std::string var = code.substr(q, ve - q);
      std::size_t ao = skip_ws(code, ve);
      if (ao >= fn.close || (code[ao] != '(' && code[ao] != '{')) continue;
      const std::size_t ac = code[ao] == '('
                                 ? skip_balanced(code, ao, '(', ')')
                                 : skip_balanced(code, ao, '{', '}');
      if (ac == npos) continue;
      Region r;
      r.lock_var = var;
      r.depth = depth;
      r.held = true;
      r.scoped = id == "scoped_lock";
      std::vector<std::string> mutex_args;
      for (const std::string& a : split_args(code, ao, ac - 1)) {
        if (is_lock_tag(a)) {
          if (a.find("defer_lock") != npos) r.held = false;
          continue;
        }
        mutex_args.push_back(a);
      }
      const std::vector<std::string> outer = w.held_nodes();
      for (const std::string& a : mutex_args) {
        const std::string node = resolve_mutex_expr(w, a);
        r.nodes.push_back(node);
        if (r.held) record_acquisition(w, outer, node, pos, "nested");
      }
      // scoped_lock's own mutexes are acquired deadlock-free (std::lock
      // ordering), so no edges among them — only from the outer set.
      w.regions.push_back(r);
      w.any_region = true;
      pos = ac - 1;
      continue;
    }

    // --- Local declarations -------------------------------------------
    if (id == "mutex") {
      // `std::mutex name;` in a body declares a local mutex.
      std::size_t q = skip_ws(code, end);
      std::size_t ve = q;
      while (ve < fn.close && ident_char(code[ve])) ++ve;
      if (ve > q) w.local_mutexes.insert(code.substr(q, ve - q));
      pos = end - 1;
      continue;
    }
    if (ctx->model.classes.count(id) && id != w.cls) {
      // `ClassName [*&] var` — a local of a modeled class.
      std::size_t q = skip_ws(code, end);
      while (q < fn.close && (code[q] == '*' || code[q] == '&')) {
        q = skip_ws(code, q + 1);
      }
      std::size_t ve = q;
      while (ve < fn.close && ident_char(code[ve])) ++ve;
      if (ve > q) {
        const std::string var = code.substr(q, ve - q);
        const std::size_t after = skip_ws(code, ve);
        const char nc = after < fn.close ? code[after] : '\0';
        if (nc == ';' || nc == '=' || nc == '(' || nc == '{') {
          w.locals[var] = id;
        }
      }
      // fall through: the class name itself needs no further handling
    }

    // What follows the identifier decides everything else.
    const std::size_t after = skip_ws(code, end);
    const char next = after < fn.close ? code[after] : '\0';
    const char prev = [&] {
      std::size_t p = pos;
      while (p > fn.open + 1 &&
             std::isspace(static_cast<unsigned char>(code[p - 1]))) {
        --p;
      }
      return p > fn.open + 1 ? code[p - 1] : '\0';
    }();
    const bool after_this = [&] {
      if (prev != '>') return false;
      const std::size_t gt = code.rfind('>', pos - 1);
      return gt != npos && gt >= 1 && code[gt - 1] == '-' &&
             ident_ending_at(code, gt - 1) == "this";
    }();
    const bool member_of_other = (prev == '.' || prev == '>') && !after_this;

    // --- .lock()/.unlock() on a tracked guard -------------------------
    if (next == '.' && !member_of_other) {
      for (Region& r : w.regions) {
        if (r.lock_var != id) continue;
        const std::size_t mb = skip_ws(code, after + 1);
        if (code.compare(mb, 6, "unlock") == 0 &&
            code[skip_ws(code, mb + 6)] == '(') {
          r.held = false;
        } else if (code.compare(mb, 4, "lock") == 0 &&
                   code[skip_ws(code, mb + 4)] == '(') {
          if (!r.held) {
            const std::vector<std::string> outer = [&] {
              std::vector<std::string> o;
              for (const std::string& n : w.held_nodes()) o.push_back(n);
              return o;
            }();
            for (const std::string& n : r.nodes) {
              record_acquisition(w, outer, n, pos, "nested");
            }
          }
          r.held = true;
        }
      }
    }

    // --- Guarded member access ----------------------------------------
    if (check_guarded && !member_of_other) {
      auto git = w.ci->guarded.find(id);
      if (git != w.ci->guarded.end() && !w.holds(git->second)) {
        w.violations.emplace_back(pos, id, git->second);
      }
    }

    // --- Condition-variable waits (exempting the released lock) -------
    if (member_of_other &&
        (id == "wait" || id == "wait_for" || id == "wait_until") &&
        next == '(') {
      const std::size_t ac = skip_balanced(code, after, '(', ')');
      std::vector<std::string> exempt;
      if (ac != npos) {
        const auto args = split_args(code, after, ac - 1);
        if (!args.empty()) {
          const std::string arg0 = trim(args[0]);
          for (const Region& r : w.regions) {
            if (r.lock_var == arg0) exempt = r.nodes;
          }
          auto pit = w.params.find(arg0);
          if (exempt.empty() && pit != w.params.end() &&
              pit->second.find("unique_lock") != npos) {
            // Waiting on a caller-owned unique_lock releases the mutex
            // this method GC_REQUIRES.
            exempt = w.requires_held;
          }
        }
      }
      check_blocking(w, pos, id, exempt);
      continue;
    }

    // --- Blocking calls ------------------------------------------------
    bool blocked = false;
    if (member_of_other && next == '(') {
      for (const char* b : kBlockingMembers) {
        if (id == b) blocked = true;
      }
      if (id == "get") {
        // future::get blocks; shared_ptr::get does not. Only flag when
        // the receiver's declaration mentions a future.
        const std::string recv = ident_ending_at(
            code, prev == '.' ? code.rfind('.', pos - 1) : pos);
        auto pit = w.params.find(recv);
        if (pit != w.params.end() && pit->second.find("future") != npos) {
          blocked = true;
        }
        if (recv.find("fut") != npos) blocked = true;
      }
    }
    if (!member_of_other) {
      if (next == '(') {
        for (const char* b : kBlockingFree) {
          if (id == b) blocked = true;
        }
        if (prev == ':') {
          // fs:: / std::filesystem:: qualified IO.
          const std::size_t colons = pos >= 2 ? pos - 2 : 0;
          const std::string qual = ident_ending_at(code, colons);
          if (qual == "fs" || qual == "filesystem") {
            for (const char* b : kBlockingFs) {
              if (id == b) blocked = true;
            }
          }
        }
      }
      for (const char* s : kBlockingStreams) {
        if (id == s) blocked = true;
      }
    }
    if (blocked) {
      check_blocking(w, pos, id, {});
      continue;
    }

    // --- Calls into methods with lock contracts -----------------------
    if (next == '(') {
      std::string callee_cls;
      if (member_of_other) {
        std::size_t sep = prev == '.' ? code.rfind('.', pos - 1)
                                      : code.rfind('>', pos - 1) - 1;
        const std::string recv = ident_ending_at(code, sep);
        if (!recv.empty()) callee_cls = resolve_receiver(w, recv);
      } else if (after_this || (prev != ':' && !w.cls.empty())) {
        callee_cls = w.cls;
      }
      if (!callee_cls.empty()) {
        const ClassInfo* callee_ci = ctx->cls(callee_cls);
        if (callee_ci) {
          auto mit = callee_ci->methods.find(id);
          if (mit != callee_ci->methods.end()) {
            const std::vector<std::string> held = w.held_nodes();
            for (const std::string& ex : mit->second.excludes) {
              for (const std::string& h : held) {
                if (!graphable(h)) continue;
                if (h == ex) {
                  ctx->report(
                      w.file, pos, "GCA102",
                      "call to '" + callee_cls + "::" + id +
                          "' (GC_EXCLUDES " + ex + ") while holding '" + ex +
                          "' — it will re-acquire the held mutex");
                } else {
                  ctx->edge(h, ex, "call", w.file, pos);
                }
              }
            }
          }
        }
      }
    }
    pos = end - 1;
  }

  // --- Decide GCA101 vs GCA104 for the collected violations -----------
  if (w.violations.empty()) return;
  const bool has_contract =
      w.mi && (!w.mi->requires_held.empty() || !w.mi->excludes.empty());
  if (!w.any_region && !has_contract && w.mi && w.mi->is_public) {
    ctx->report(file_index, fn.name_pos, "GCA104",
                "public method '" + fn.cls + "::" + fn.name +
                    "' acquires no lock and declares no contract but "
                    "touches guarded state (e.g. '" +
                    std::get<1>(w.violations.front()) + "')");
    return;
  }
  for (const auto& [pos, member, node] : w.violations) {
    ctx->report(file_index, pos, "GCA101",
                "member '" + member + "' of " + fn.cls + " is guarded by '" +
                    node + "' which is not held here");
  }
}

// ---------------------------------------------------------------------------
// Lock-order graph: declared + observed edges, SCC condensation.

void check_lock_order(Ctx* ctx) {
  // Declared GC_ACQUIRED_BEFORE edges.
  for (const auto& [cname, ci] : ctx->model.classes) {
    for (const auto& [mname, mi] : ci.mutexes) {
      const std::string from = cname + "::" + mname;
      for (const std::string& to : mi.acquired_before) {
        if (mi.file >= 0) {
          ctx->edge(from, to, "declared", mi.file, mi.pos);
        }
      }
    }
  }

  // Dedupe to an adjacency map keeping the first provenance per edge.
  std::map<std::string, std::map<std::string, const LockEdge*>> adj;
  std::set<std::string> nodes;
  for (const LockEdge& e : ctx->edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
    auto& row = adj[e.from];
    if (!row.count(e.to)) row[e.to] = &e;
  }

  // Tarjan SCC (iterative), nodes in deterministic (sorted) order.
  std::map<std::string, int> index, low;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  int counter = 0;
  std::vector<std::vector<std::string>> sccs;

  struct Frame {
    std::string node;
    std::map<std::string, const LockEdge*>::const_iterator it, end;
  };
  for (const std::string& start : nodes) {
    if (index.count(start)) continue;
    std::vector<Frame> call;
    auto push_node = [&](const std::string& n) {
      index[n] = low[n] = counter++;
      stack.push_back(n);
      on_stack.insert(n);
      const auto& row = adj[n];
      call.push_back({n, row.begin(), row.end()});
    };
    push_node(start);
    while (!call.empty()) {
      Frame& f = call.back();
      if (f.it != f.end) {
        const std::string next = f.it->first;
        ++f.it;
        if (!index.count(next)) {
          push_node(next);
        } else if (on_stack.count(next)) {
          low[f.node] = std::min(low[f.node], index[next]);
        }
      } else {
        if (low[f.node] == index[f.node]) {
          std::vector<std::string> scc;
          for (;;) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack.erase(n);
            scc.push_back(n);
            if (n == f.node) break;
          }
          if (scc.size() > 1) sccs.push_back(scc);
        }
        const std::string done = f.node;
        call.pop_back();
        if (!call.empty()) {
          low[call.back().node] = std::min(low[call.back().node], low[done]);
        }
      }
    }
  }

  for (auto& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    std::string members;
    for (const std::string& n : scc) {
      if (!members.empty()) members += ", ";
      members += n;
    }
    // Describe the edges inside the cycle and anchor the finding at the
    // first observed (non-declared) edge — that is the code to fix.
    const LockEdge* anchor = nullptr;
    std::string detail;
    for (const std::string& a : scc) {
      for (const std::string& b : scc) {
        auto it = adj[a].find(b);
        if (it == adj[a].end()) continue;
        const LockEdge* e = it->second;
        if (!detail.empty()) detail += "; ";
        detail += e->from + " -> " + e->to + " (" + e->why + " at " +
                  e->file + ":" + std::to_string(e->line) + ")";
        if (!anchor || (anchor->why == "declared" && e->why != "declared")) {
          anchor = e;
        }
      }
    }
    if (!anchor) continue;
    // Re-derive the file index from the path for report().
    int fidx = -1;
    for (std::size_t i = 0; i < ctx->files.size(); ++i) {
      if (ctx->files[i].src.path == anchor->file) {
        fidx = static_cast<int>(i);
      }
    }
    if (fidx < 0) continue;
    // report() wants an offset; reconstruct one from the line.
    const FlatFile& flat = ctx->files[static_cast<std::size_t>(fidx)]
                               .parsed.flat;
    const std::size_t pos =
        flat.line_start[static_cast<std::size_t>(anchor->line - 1)];
    ctx->report(fidx, pos, "GCA102",
                "lock-order cycle among {" + members + "}: " + detail);
  }
}

}  // namespace

const std::vector<Rule>& rules() { return kRules; }

Analysis analyze_sources_full(const std::vector<SourceFile>& sources) {
  Analysis out;
  Ctx ctx;
  for (const SourceFile& s : sources) {
    AnalyzedFile af;
    af.src = s;
    af.parsed = parse_file(s.path, s.content);
    ctx.files.push_back(std::move(af));
  }
  for (std::size_t i = 0; i < ctx.files.size(); ++i) {
    collect_declarations(ctx.files[i].parsed, static_cast<int>(i),
                         &ctx.model);
  }
  resolve_member_types(&ctx.model);

  for (std::size_t i = 0; i < ctx.files.size(); ++i) {
    const ParsedFile& pf = ctx.files[i].parsed;
    for (const Scope& s : pf.scopes) {
      if (s.kind != ScopeKind::kFunction) continue;
      walk_function(&ctx, static_cast<int>(i), pf, s);
    }
  }
  check_lock_order(&ctx);

  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.col < b.col;
            });
  out.findings = std::move(ctx.findings);
  out.edges = std::move(ctx.edges);
  return out;
}

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& sources) {
  return analyze_sources_full(sources).findings;
}

Analysis analyze_tree(const std::string& root,
                      const std::vector<std::string>& dirs,
                      std::size_t* files_scanned) {
  std::vector<SourceFile> sources;
  for (const std::string& path : tool::list_sources(root, dirs)) {
    std::string content;
    if (!tool::read_file(path, &content)) continue;
    sources.push_back({tool::repo_relative(root, path), std::move(content)});
  }
  if (files_scanned) *files_scanned = sources.size();
  return analyze_sources_full(sources);
}

const std::vector<std::string>& default_dirs() {
  static const std::vector<std::string> kDirs = {"src"};
  return kDirs;
}

}  // namespace gc::analyze
