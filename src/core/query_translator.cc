#include "core/query_translator.h"

#include "common/str_util.h"
#include "core/data_model.h"
#include "relstore/lexer.h"

namespace orpheus::core {

namespace {

bool IsWord(const rel::Token& tok, const char* word) {
  return (tok.type == rel::TokenType::kIdentifier ||
          tok.type == rel::TokenType::kKeyword) &&
         EqualsIgnoreCase(tok.text, word);
}

// Builds the derived-table SQL exposing every version's records with a
// vid column.
std::string AllVersionsSubquery(const std::string& data_table,
                                const std::string& versioning_table) {
  return "(SELECT orpheus_v.vid AS vid, d.* FROM " + data_table +
         " d, (SELECT vid, unnest(rlist) AS orpheus_rid FROM " +
         versioning_table +
         ") AS orpheus_v WHERE d.rid = orpheus_v.orpheus_rid)";
}

}  // namespace

Result<std::string> TranslateVersionedSql(const std::string& sql,
                                          const TableResolver& resolver) {
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<rel::Token> tokens, rel::Tokenize(sql));
  std::string out;
  size_t consumed = 0;  // byte offset into `sql` already copied
  int alias_counter = 0;

  for (size_t i = 0; i < tokens.size(); ++i) {
    const rel::Token& tok = tokens[i];
    bool is_version = IsWord(tok, "version") && i + 4 < tokens.size() &&
                      tokens[i + 1].type == rel::TokenType::kInteger &&
                      IsWord(tokens[i + 2], "of") && IsWord(tokens[i + 3], "cvd") &&
                      tokens[i + 4].type == rel::TokenType::kIdentifier;
    bool is_cvd = !is_version && IsWord(tok, "cvd") && i + 1 < tokens.size() &&
                  tokens[i + 1].type == rel::TokenType::kIdentifier &&
                  // not the tail of "... OF CVD x" (handled above)
                  (i < 2 || !IsWord(tokens[i - 1], "of"));
    if (!is_version && !is_cvd) continue;

    // Copy the text before this construct.
    out.append(sql, consumed, tok.offset - consumed);

    std::string cvd_name;
    VersionId vid = -1;
    size_t end_index;  // first token after the construct
    if (is_version) {
      vid = tokens[i + 1].int_value;
      cvd_name = tokens[i + 4].text;
      end_index = i + 5;
    } else {
      cvd_name = tokens[i + 1].text;
      end_index = i + 2;
    }
    ORPHEUS_ASSIGN_OR_RETURN(auto tables, resolver(cvd_name, vid));

    out += is_version
               ? "(" + RlistVersionSql(tables.first, tables.second, vid) + ")"
               : AllVersionsSubquery(tables.first, tables.second);

    // Preserve a user alias if present, else invent one (derived
    // tables require aliases).
    bool has_alias = false;
    if (end_index < tokens.size()) {
      const rel::Token& next = tokens[end_index];
      if (next.type == rel::TokenType::kKeyword && next.text == "as") {
        has_alias = true;
      } else if (next.type == rel::TokenType::kIdentifier) {
        has_alias = true;
      }
    }
    if (!has_alias) {
      out += " AS orpheus_cvd" + std::to_string(alias_counter++);
    }
    // The splice consumed the whitespace up to the next token.
    out += " ";

    consumed = end_index < tokens.size() ? tokens[end_index].offset : sql.size();
    i = end_index - 1;  // loop increment moves past the construct
  }
  out.append(sql, consumed, sql.size() - consumed);
  return out;
}

}  // namespace orpheus::core
