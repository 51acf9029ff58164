// ward_roles: multiple subjects with role policies over one hospital
// document — the `requester` dimension the paper fixes, restored — plus the
// security-view export of what each role can see.
//
//   build/examples/ward_roles

#include <cstdio>

#include "engine/multi_subject.h"
#include "workload/hospital.h"
#include "xml/serializer.h"

namespace {

constexpr char kNurse[] = R"(
default deny
conflict deny
allow //hospital
allow //dept
allow //patients
allow //patient
allow //patient/name
deny  //patient[.//experimental]
)";

constexpr char kDoctor[] = R"(
default allow
conflict deny
deny //bill
)";

constexpr char kBilling[] = R"(
default deny
conflict deny
allow //hospital
allow //dept
allow //patients
allow //patient
allow //patient/psn
allow //patient/treatment
allow //treatment/*
allow //regular/bill
allow //experimental/bill
)";

void Probe(xmlac::engine::MultiSubjectController& msc, const char* subject,
           const char* query) {
  auto r = msc.Query(subject, query);
  std::printf("  %-8s %-24s %s\n", subject, query,
              r.ok() ? ("GRANTED (" + std::to_string(r->ids.size()) +
                        " nodes)")
                           .c_str()
                     : "DENIED");
}

}  // namespace

int main() {
  using namespace xmlac;

  workload::HospitalGenerator gen;
  workload::HospitalOptions opt;
  opt.departments = 1;
  opt.patients_per_department = 4;
  opt.staff_per_department = 2;
  opt.seed = 3;
  xml::Document doc = gen.Generate(opt);
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();

  engine::MultiSubjectController msc(
      [] { return std::make_unique<engine::NativeXmlBackend>(); });
  Status st = msc.LoadParsed(*dtd, doc);
  if (!st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return 1;
  }
  for (auto [name, policy] : {std::pair{"nurse", kNurse},
                              std::pair{"doctor", kDoctor},
                              std::pair{"billing", kBilling}}) {
    st = msc.AddSubject(name, policy);
    if (!st.ok()) {
      std::printf("%s: %s\n", name, st.ToString().c_str());
      return 1;
    }
  }

  std::printf("role-based access over one ward (%zu elements):\n",
              msc.document().alive_count());
  for (const char* q : {"//patient/name", "//patient/psn", "//bill",
                        "//treatment", "//doctor/phone"}) {
    for (const char* s : {"nurse", "doctor", "billing"}) Probe(msc, s, q);
    std::printf("\n");
  }

  // Security views: what each role's slice of the document looks like.
  for (const char* s : {"doctor", "billing"}) {
    engine::Backend* signs = msc.subject(s)->backend();
    xml::Document view =
        engine::AccessibleView(msc.document(), [signs](xml::NodeId n) {
          auto sign = signs->GetSign(static_cast<engine::UniversalId>(n));
          return sign.ok() && *sign == '+';
        });
    xml::SerializeOptions pretty;
    pretty.indent = true;
    std::printf("---- %s's view ----\n%s\n\n", s,
                xml::Serialize(view, pretty).c_str());
  }

  // A broadcast update: discharge patient 000.
  auto stats =
      msc.ApplyBatch({engine::BatchOp::Delete("//patient[psn=\"000\"]")});
  if (stats.ok()) {
    std::printf("discharged patient 000; per-subject rules triggered:");
    for (const auto& [name, s] : *stats) {
      std::printf(" %s=%zu", name.c_str(), s.rules_triggered);
    }
    std::printf("\n");
  }
  return 0;
}
