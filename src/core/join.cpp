#include "core/join.h"

#include <algorithm>
#include <cctype>

#include "common/error.h"
#include "common/text.h"
#include "core/parser.h"

namespace wflog {

std::string VarRef::to_string() const {
  if (sel == MapSel::kAny) return variable + "." + attr;
  return variable + "." + std::string(wflog::to_string(sel)) + "." + attr;
}

JoinExprPtr JoinExpr::compare(VarRef lhs, CmpOp op, Value literal) {
  auto e = std::shared_ptr<JoinExpr>(new JoinExpr());
  e->kind_ = Kind::kCmpLiteral;
  e->lhs_ = std::move(lhs);
  e->cmp_ = op;
  e->literal_ = std::move(literal);
  return e;
}

JoinExprPtr JoinExpr::compare_refs(VarRef lhs, CmpOp op, VarRef rhs) {
  auto e = std::shared_ptr<JoinExpr>(new JoinExpr());
  e->kind_ = Kind::kCmpRef;
  e->lhs_ = std::move(lhs);
  e->cmp_ = op;
  e->rhs_ref_ = std::move(rhs);
  return e;
}

JoinExprPtr JoinExpr::logical_and(JoinExprPtr a, JoinExprPtr b) {
  auto e = std::shared_ptr<JoinExpr>(new JoinExpr());
  e->kind_ = Kind::kAnd;
  e->left_ = std::move(a);
  e->right_ = std::move(b);
  return e;
}

JoinExprPtr JoinExpr::logical_or(JoinExprPtr a, JoinExprPtr b) {
  auto e = std::shared_ptr<JoinExpr>(new JoinExpr());
  e->kind_ = Kind::kOr;
  e->left_ = std::move(a);
  e->right_ = std::move(b);
  return e;
}

JoinExprPtr JoinExpr::logical_not(JoinExprPtr a) {
  auto e = std::shared_ptr<JoinExpr>(new JoinExpr());
  e->kind_ = Kind::kNot;
  e->left_ = std::move(a);
  return e;
}

namespace {

const Value* resolve(const VarRef& ref, const BindingMap& bindings, Wid wid,
                     const LogIndex& index) {
  const auto it = std::find_if(bindings.begin(), bindings.end(),
                               [&ref](const Binding& b) {
                                 return b.variable == ref.variable;
                               });
  if (it == bindings.end()) return nullptr;
  const LogRecord* l = index.find(wid, it->position);
  if (l == nullptr) return nullptr;
  const Symbol attr = index.log().interner().find(ref.attr);
  if (attr == kNoSymbol) return nullptr;
  switch (ref.sel) {
    case MapSel::kIn:
      return l->in.get(attr);
    case MapSel::kOut:
      return l->out.get(attr);
    case MapSel::kAny: {
      const Value* v = l->out.get(attr);
      return v != nullptr ? v : l->in.get(attr);
    }
  }
  return nullptr;
}

bool compare_values(const Value& a, CmpOp op, const Value& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a.compare(b) < 0;
    case CmpOp::kLe:
      return a.compare(b) <= 0;
    case CmpOp::kGt:
      return a.compare(b) > 0;
    case CmpOp::kGe:
      return a.compare(b) >= 0;
  }
  return false;
}

}  // namespace

bool JoinExpr::eval(const BindingMap& bindings, Wid wid,
                    const LogIndex& index) const {
  switch (kind_) {
    case Kind::kCmpLiteral: {
      const Value* v = resolve(lhs_, bindings, wid, index);
      return v != nullptr && compare_values(*v, cmp_, literal_);
    }
    case Kind::kCmpRef: {
      const Value* a = resolve(lhs_, bindings, wid, index);
      const Value* b = resolve(rhs_ref_, bindings, wid, index);
      return a != nullptr && b != nullptr && compare_values(*a, cmp_, *b);
    }
    case Kind::kAnd:
      return left_->eval(bindings, wid, index) &&
             right_->eval(bindings, wid, index);
    case Kind::kOr:
      return left_->eval(bindings, wid, index) ||
             right_->eval(bindings, wid, index);
    case Kind::kNot:
      return !left_->eval(bindings, wid, index);
  }
  return false;
}

std::string JoinExpr::to_string() const {
  switch (kind_) {
    case Kind::kCmpLiteral: {
      // String literals are always quoted: a bare multi-word rendering
      // would not re-parse (and could be mistaken for a reference).
      std::string lit;
      if (literal_.kind() == ValueKind::kString) {
        lit = "\"";
        for (char c : literal_.as_string()) {
          if (c == '"' || c == '\\') lit += '\\';
          lit += c;
        }
        lit += "\"";
      } else {
        lit = literal_.to_string();
      }
      return lhs_.to_string() + " " + std::string(wflog::to_string(cmp_)) +
             " " + lit;
    }
    case Kind::kCmpRef:
      return lhs_.to_string() + " " + std::string(wflog::to_string(cmp_)) +
             " " + rhs_ref_.to_string();
    case Kind::kAnd:
      return "(" + left_->to_string() + " && " + right_->to_string() + ")";
    case Kind::kOr:
      return "(" + left_->to_string() + " || " + right_->to_string() + ")";
    case Kind::kNot:
      return "!(" + left_->to_string() + ")";
  }
  return "";
}

std::vector<std::string> JoinExpr::variables() const {
  std::vector<std::string> vars;
  switch (kind_) {
    case Kind::kCmpLiteral:
      vars.push_back(lhs_.variable);
      break;
    case Kind::kCmpRef:
      vars.push_back(lhs_.variable);
      vars.push_back(rhs_ref_.variable);
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      vars = left_->variables();
      const auto r = right_->variables();
      vars.insert(vars.end(), r.begin(), r.end());
      break;
    }
    case Kind::kNot:
      vars = left_->variables();
      break;
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

// ------------------------------------------------------------------------
// Parsing
// ------------------------------------------------------------------------

namespace {

class JoinParser {
 public:
  JoinParser(std::string_view text, std::size_t base)
      : text_(text), base_(base) {}

  JoinExprPtr parse() {
    JoinExprPtr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content in where clause");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, base_ + pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_).starts_with(word)) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  JoinExprPtr parse_or() {
    JoinExprPtr e = parse_and();
    while (eat("||")) e = JoinExpr::logical_or(e, parse_and());
    return e;
  }

  JoinExprPtr parse_and() {
    JoinExprPtr e = parse_factor();
    while (eat("&&")) e = JoinExpr::logical_and(e, parse_factor());
    return e;
  }

  VarRef parse_ref() {
    VarRef ref;
    ref.variable = std::string(ident());
    skip_ws();
    if (peek() != '.') fail("expected '.' after variable name");
    ++pos_;
    const std::string_view second = ident();
    if ((second == "in" || second == "out") && peek() == '.') {
      ++pos_;
      ref.sel = second == "in" ? MapSel::kIn : MapSel::kOut;
      ref.attr = std::string(ident());
    } else {
      ref.sel = MapSel::kAny;
      ref.attr = std::string(second);
    }
    return ref;
  }

  CmpOp parse_cmp() {
    skip_ws();
    if (eat("==") || eat("=")) return CmpOp::kEq;
    if (eat("!=")) return CmpOp::kNe;
    if (eat("<=")) return CmpOp::kLe;
    if (eat("<")) return CmpOp::kLt;
    if (eat(">=")) return CmpOp::kGe;
    if (eat(">")) return CmpOp::kGt;
    fail("expected comparison operator");
  }

  JoinExprPtr parse_factor() {
    skip_ws();
    if (eat("!")) return JoinExpr::logical_not(parse_factor());
    if (peek() == '(') {
      ++pos_;
      JoinExprPtr e = parse_or();
      skip_ws();
      if (peek() != ')') fail("expected ')'");
      ++pos_;
      return e;
    }
    VarRef lhs = parse_ref();
    const CmpOp op = parse_cmp();
    skip_ws();
    // Right-hand side: a reference (IDENT '.' ...) or a literal.
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) != 0 ||
         text_[pos_] == '_')) {
      const std::size_t save = pos_;
      const std::string_view word = ident();
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '.') {
        pos_ = save;  // it is a reference: reparse fully
        return JoinExpr::compare_refs(std::move(lhs), op, parse_ref());
      }
      // Bare word literal (true/false/null/string).
      return JoinExpr::compare(std::move(lhs), op,
                               Value::parse(std::string(word)));
    }
    // Quoted string or number.
    if (peek() == '"') {
      const std::size_t start = pos_;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\') ++pos_;
        ++pos_;
      }
      if (pos_ >= text_.size()) fail("unterminated string literal");
      ++pos_;
      return JoinExpr::compare(
          std::move(lhs), op,
          Value::parse(text_.substr(start, pos_ - start)));
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected literal or reference");
    return JoinExpr::compare(std::move(lhs), op,
                             Value::parse(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

/// Byte offset of the top-level `where` keyword (outside [ ] predicates
/// and strings), or npos.
std::size_t find_where(std::string_view text) {
  bool in_brackets = false;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      in_brackets = true;
    } else if (c == ']') {
      in_brackets = false;
    } else if (!in_brackets && c == 'w' &&
               text.compare(i, 5, "where") == 0) {
      const bool left_ok =
          i == 0 ||
          (std::isalnum(static_cast<unsigned char>(text[i - 1])) == 0 &&
           text[i - 1] != '_');
      const bool right_ok =
          i + 5 == text.size() ||
          (std::isalnum(static_cast<unsigned char>(text[i + 5])) == 0 &&
           text[i + 5] != '_');
      if (left_ok && right_ok) return i;
    }
  }
  return std::string_view::npos;
}

void collect_pattern_variables(const Pattern& p,
                               std::vector<std::string>& out) {
  if (p.is_atom()) {
    if (!p.binding().empty()) out.push_back(p.binding());
    return;
  }
  collect_pattern_variables(*p.left(), out);
  collect_pattern_variables(*p.right(), out);
}

}  // namespace

JoinExprPtr parse_join_expr(std::string_view text) {
  return JoinParser(text, 0).parse();
}

ParsedQuery parse_query(std::string_view text) {
  ParsedQuery q;
  const std::size_t where_at = find_where(text);
  if (where_at == std::string_view::npos) {
    q.pattern = parse_pattern(text);
    return q;
  }
  q.pattern = parse_pattern(text.substr(0, where_at));
  q.where = JoinParser(text.substr(where_at + 5), where_at + 5).parse();

  // Validate variable scope.
  std::vector<std::string> bound;
  collect_pattern_variables(*q.pattern, bound);
  std::sort(bound.begin(), bound.end());
  for (const std::string& var : q.where->variables()) {
    if (!std::binary_search(bound.begin(), bound.end(), var)) {
      throw QueryError("where clause references unbound variable '" + var +
                       "'");
    }
  }
  return q;
}

IncidentSet filter_where(const IncidentSet& incidents, const Pattern& p,
                         const JoinExpr& expr, const LogIndex& index,
                         const EvalGuard* guard) {
  IncidentSet out;
  IncidentList kept;  // one group's survivors, reused across groups
  for (const IncidentSet::Group& g : incidents.groups()) {
    kept.clear();
    for (const Incident& o : g.incidents) {
      // Binding derivation + expr evaluation per incident is the hot part
      // of a where pass; poll the guard here so a deadline set on the run
      // also bounds the filtering, not just the pattern evaluation.
      if (guard != nullptr && guard->check()) {
        if (!kept.empty()) out.add_group(g.wid, kept);
        return out;
      }
      const auto assignments = derive_all_bindings(p, o, index);
      const bool pass = std::any_of(
          assignments.begin(), assignments.end(),
          [&](const BindingMap& b) { return expr.eval(b, g.wid, index); });
      if (pass) kept.push_back(o);
    }
    if (!kept.empty()) out.add_group(g.wid, kept);
  }
  return out;
}

}  // namespace wflog
