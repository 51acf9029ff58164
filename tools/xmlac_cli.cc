// xmlac — command-line front end for the access-control pipeline.
//
//   xmlac --dtd schema.dtd --xml doc.xml --policy rules.pol
//         [--backend native|row|column] [--no-optimize]
//         [--query XPATH]... [--delete XPATH]...
//         [--insert TARGET_XPATH FRAGMENT_XML]...
//         [--explain-sql XPATH] [--xquery EXPR] [--print-annotated] [--repl]
//         [--stats] [--trace-json=FILE] [--metrics-json=FILE]
//
// Actions run in command-line order after load + annotation.  --repl drops
// into an interactive loop afterwards (`help` lists commands).
//
// Observability: --stats prints the pipeline metrics table (see
// docs/observability.md) after setup and after each action; --trace-json
// enables tracing and writes the span tree as JSON on exit; --metrics-json
// writes the final metrics snapshot as JSON on exit.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/strings.h"
#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "obs/export.h"
#include "policy/semantics.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace {

using xmlac::Status;
using xmlac::engine::AccessController;
using xmlac::engine::Backend;
using xmlac::engine::NativeXmlBackend;
using xmlac::engine::RelationalBackend;
using xmlac::engine::RelationalOptions;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dtd FILE --xml FILE --policy FILE [options] [actions]\n"
      "options:\n"
      "  --backend native|row|column   storage engine (default native)\n"
      "  --no-optimize                 skip policy optimization\n"
      "actions (run in order):\n"
      "  --query XPATH                 all-or-nothing read request\n"
      "  --delete XPATH                delete update + re-annotation\n"
      "  --insert XPATH XMLFRAGMENT    insert update + re-annotation\n"
      "  --explain-sql XPATH           print the compiled SQL (relational)\n"
      "  --xquery EXPR                 run an XQuery-lite expression (native)\n"
      "  --print-annotated             dump the annotated XML (native)\n"
      "  --repl                        interactive mode\n"
      "observability:\n"
      "  --stats                       print the metrics table after setup\n"
      "                                and after each action\n"
      "  --trace-json[=]FILE           enable tracing, write span tree JSON\n"
      "  --metrics-json[=]FILE         write final metrics snapshot JSON\n",
      argv0);
  return 2;
}

std::unique_ptr<Backend> MakeBackend(const std::string& name) {
  if (name == "native") return std::make_unique<NativeXmlBackend>();
  RelationalOptions opt;
  if (name == "row") {
    opt.storage = xmlac::reldb::StorageKind::kRowStore;
    return std::make_unique<RelationalBackend>(opt);
  }
  if (name == "column") {
    opt.storage = xmlac::reldb::StorageKind::kColumnStore;
    return std::make_unique<RelationalBackend>(opt);
  }
  return nullptr;
}

void PrintStats(AccessController& ac, const char* label) {
  std::printf("--- metrics after %s ---\n%s", label,
              xmlac::obs::MetricsToText(ac.SnapshotMetrics()).c_str());
}

void DoQuery(AccessController& ac, const std::string& xpath) {
  auto r = ac.Query(xpath);
  if (r.ok()) {
    std::printf("GRANTED  %-30s %zu node(s):", xpath.c_str(),
                r->ids.size());
    for (size_t i = 0; i < r->ids.size() && i < 16; ++i) {
      std::printf(" %lld", static_cast<long long>(r->ids[i]));
    }
    if (r->ids.size() > 16) std::printf(" ...");
    std::printf("\n");
  } else {
    std::printf("DENIED   %-30s %s\n", xpath.c_str(),
                r.status().message().c_str());
  }
}

void DoDelete(AccessController& ac, const std::string& xpath) {
  auto r = ac.Update(xpath);
  if (r.ok()) {
    std::printf("DELETED  %-30s %zu node(s), %zu rule(s) triggered, "
                "re-annotation reset %zu / re-marked %zu (%zu rule(s))\n",
                xpath.c_str(), r->nodes_deleted, r->rules_triggered,
                r->reannotation.reset, r->reannotation.marked,
                r->reannotation.rules_used);
  } else {
    std::printf("ERROR    %-30s %s\n", xpath.c_str(),
                r.status().ToString().c_str());
  }
}

void DoInsert(AccessController& ac, const std::string& target,
              const std::string& fragment) {
  auto r = ac.Insert(target, fragment);
  if (r.ok()) {
    std::printf("INSERTED %-30s %zu node(s), %zu rule(s) triggered, "
                "re-annotation reset %zu / re-marked %zu (%zu rule(s))\n",
                target.c_str(), r->nodes_inserted, r->rules_triggered,
                r->reannotation.reset, r->reannotation.marked,
                r->reannotation.rules_used);
  } else {
    std::printf("ERROR    %-30s %s\n", target.c_str(),
                r.status().ToString().c_str());
  }
}

void DoExplainSql(AccessController& ac, const std::string& xpath) {
  auto* rel = dynamic_cast<RelationalBackend*>(ac.backend());
  if (rel == nullptr) {
    std::printf("ERROR    --explain-sql requires --backend row|column\n");
    return;
  }
  auto path = xmlac::xpath::ParsePath(xpath);
  if (!path.ok()) {
    std::printf("ERROR    %s\n", path.status().ToString().c_str());
    return;
  }
  auto tr = xmlac::shred::TranslateXPath(*path, *rel->mapping());
  if (!tr.ok()) {
    std::printf("ERROR    %s\n", tr.status().ToString().c_str());
    return;
  }
  if (tr->empty) {
    std::printf("-- statically empty (no schema instance matches)\n");
    return;
  }
  std::printf("%s;\n", tr->query.ToSql().c_str());
  auto plan = rel->executor()->ExplainSelect(tr->query);
  if (plan.ok()) {
    std::printf("plan:\n%s", plan->c_str());
  }
}

void DoXQuery(AccessController& ac, const std::string& query) {
  auto* native = dynamic_cast<NativeXmlBackend*>(ac.backend());
  if (native == nullptr) {
    std::printf("ERROR    --xquery requires --backend native\n");
    return;
  }
  auto r = native->RunXQuery(query);
  if (r.ok()) {
    std::printf("XQUERY   => %s", r->ToString().c_str());
    if (native->document().size() > 0 && r->is_nodes()) {
      std::printf(" [");
      for (size_t i = 0; i < r->nodes().size() && i < 12; ++i) {
        std::printf("%s%u", i ? " " : "", r->nodes()[i]);
      }
      if (r->nodes().size() > 12) std::printf(" ...");
      std::printf("]");
    }
    std::printf("\n");
  } else {
    std::printf("ERROR    %s\n", r.status().ToString().c_str());
  }
}

void DoPrintAnnotated(AccessController& ac) {
  auto* native = dynamic_cast<NativeXmlBackend*>(ac.backend());
  if (native == nullptr) {
    std::printf("ERROR    --print-annotated requires --backend native\n");
    return;
  }
  xmlac::xml::SerializeOptions opt;
  opt.indent = true;
  std::printf("%s\n", xmlac::xml::Serialize(native->document(), opt).c_str());
}

void Repl(AccessController& ac) {
  std::printf("xmlac repl — commands: query X | delete X | insert X FRAG | "
              "sql X | annotated | policy | quit\n");
  std::string line;
  while (std::printf("xmlac> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view rest = xmlac::StrTrim(line);
    if (rest.empty()) continue;
    size_t sp = rest.find(' ');
    std::string cmd(rest.substr(0, sp));
    std::string arg(sp == std::string_view::npos
                        ? ""
                        : xmlac::StrTrim(rest.substr(sp)));
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "query") {
      DoQuery(ac, arg);
    } else if (cmd == "delete") {
      DoDelete(ac, arg);
    } else if (cmd == "insert") {
      size_t frag = arg.find('<');
      if (frag == std::string::npos) {
        std::printf("usage: insert TARGET_XPATH <fragment/>\n");
        continue;
      }
      DoInsert(ac, std::string(xmlac::StrTrim(arg.substr(0, frag))),
               arg.substr(frag));
    } else if (cmd == "sql") {
      DoExplainSql(ac, arg);
    } else if (cmd == "xquery") {
      DoXQuery(ac, arg);
    } else if (cmd == "annotated") {
      DoPrintAnnotated(ac);
    } else if (cmd == "policy") {
      std::printf("%s", ac.active_policy().ToString().c_str());
    } else if (cmd == "help") {
      std::printf("query X | delete X | insert X FRAG | sql X | annotated | "
                  "policy | quit\n");
    } else {
      std::printf("unknown command '%s' (try help)\n", cmd.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dtd_path, xml_path, policy_path;
  std::string backend_name = "native";
  bool optimize = true;
  // (kind, arg1, arg2) actions in order.
  struct Action {
    std::string kind, a, b;
  };
  std::vector<Action> actions;
  bool repl = false;
  bool stats = false;
  std::string trace_json_path;
  std::string metrics_json_path;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto need = [&](int n) { return i + n < argc; };
    // --trace-json=FILE / --metrics-json=FILE (also accepted as two args).
    auto eq_value = [&flag](const char* name) -> std::string {
      std::string prefix = std::string(name) + "=";
      if (flag.rfind(prefix, 0) == 0) return flag.substr(prefix.size());
      return "";
    };
    if (std::string v = eq_value("--trace-json"); !v.empty()) {
      trace_json_path = v;
      continue;
    }
    if (std::string v = eq_value("--metrics-json"); !v.empty()) {
      metrics_json_path = v;
      continue;
    }
    if (flag == "--stats") {
      stats = true;
    } else if (flag == "--trace-json" && need(1)) {
      trace_json_path = argv[++i];
    } else if (flag == "--metrics-json" && need(1)) {
      metrics_json_path = argv[++i];
    } else if (flag == "--dtd" && need(1)) {
      dtd_path = argv[++i];
    } else if (flag == "--xml" && need(1)) {
      xml_path = argv[++i];
    } else if (flag == "--policy" && need(1)) {
      policy_path = argv[++i];
    } else if (flag == "--backend" && need(1)) {
      backend_name = argv[++i];
    } else if (flag == "--no-optimize") {
      optimize = false;
    } else if (flag == "--query" && need(1)) {
      actions.push_back({"query", argv[++i], ""});
    } else if (flag == "--delete" && need(1)) {
      actions.push_back({"delete", argv[++i], ""});
    } else if (flag == "--insert" && need(2)) {
      actions.push_back({"insert", argv[i + 1], argv[i + 2]});
      i += 2;
    } else if (flag == "--explain-sql" && need(1)) {
      actions.push_back({"sql", argv[++i], ""});
    } else if (flag == "--xquery" && need(1)) {
      actions.push_back({"xquery", argv[++i], ""});
    } else if (flag == "--print-annotated") {
      actions.push_back({"annotated", "", ""});
    } else if (flag == "--repl") {
      repl = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (dtd_path.empty() || xml_path.empty() || policy_path.empty()) {
    return Usage(argv[0]);
  }
  auto backend = MakeBackend(backend_name);
  if (backend == nullptr) return Usage(argv[0]);

  auto dtd_text = xmlac::ReadFile(dtd_path);
  auto xml_text = xmlac::ReadFile(xml_path);
  auto policy_text = xmlac::ReadFile(policy_path);
  for (const auto* r : {&dtd_text, &xml_text, &policy_text}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 1;
    }
  }

  xmlac::engine::ControllerOptions options;
  options.optimize_policies = optimize;
  AccessController ac(std::move(backend), options);
  if (!trace_json_path.empty()) ac.EnableTracing(true);
  Status st = ac.Load(*dtd_text, *xml_text);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }
  st = ac.SetPolicy(*policy_text);
  if (!st.ok()) {
    std::fprintf(stderr, "policy: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu elements; policy: %zu active rule(s) "
              "(%zu redundant removed, %zu unsatisfiable removed, "
              "%zu containment test(s))\n",
              ac.backend()->NodeCount(), ac.active_policy().size(),
              ac.optimizer_stats().removed,
              ac.optimizer_stats().unsatisfiable,
              ac.optimizer_stats().containment_tests);
  if (stats) PrintStats(ac, "setup");

  for (const Action& a : actions) {
    if (a.kind == "query") {
      DoQuery(ac, a.a);
    } else if (a.kind == "delete") {
      DoDelete(ac, a.a);
    } else if (a.kind == "insert") {
      DoInsert(ac, a.a, a.b);
    } else if (a.kind == "sql") {
      DoExplainSql(ac, a.a);
    } else if (a.kind == "xquery") {
      DoXQuery(ac, a.a);
    } else if (a.kind == "annotated") {
      DoPrintAnnotated(ac);
    }
    if (stats && a.kind != "annotated") PrintStats(ac, a.kind.c_str());
  }
  if (repl) Repl(ac);

  if (!trace_json_path.empty()) {
    Status w = xmlac::WriteFile(trace_json_path,
                                xmlac::obs::TraceToJson(ac.tracer().root()));
    if (!w.ok()) {
      std::fprintf(stderr, "trace-json: %s\n", w.ToString().c_str());
      return 1;
    }
  }
  if (!metrics_json_path.empty()) {
    Status w = xmlac::WriteFile(metrics_json_path,
                                xmlac::obs::MetricsToJson(ac.SnapshotMetrics()));
    if (!w.ok()) {
      std::fprintf(stderr, "metrics-json: %s\n", w.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
