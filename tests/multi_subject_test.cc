#include "engine/multi_subject.h"

#include <gtest/gtest.h>

#include "engine/relational_backend.h"
#include "tests/testdata.h"

namespace xmlac::engine {
namespace {

// A nurse sees patient names; a doctor additionally sees treatments; a
// billing clerk only bills.
constexpr char kNursePolicy[] = R"(
default deny
conflict deny
allow //patient
allow //patient/name
deny  //patient[treatment]
)";

constexpr char kDoctorPolicy[] = R"(
default deny
conflict deny
allow //patient
allow //patient/name
allow //patient/psn
allow //treatment
allow //regular
allow //experimental
allow //med
allow //test
allow //bill
)";

constexpr char kBillingPolicy[] = R"(
default deny
conflict deny
allow //bill
)";

std::unique_ptr<Backend> NativeFactory() {
  return std::make_unique<NativeXmlBackend>();
}

class MultiSubjectTest : public ::testing::Test {
 protected:
  MultiSubjectTest() : msc_(NativeFactory) {}

  void SetUp() override {
    ASSERT_TRUE(
        msc_.Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(msc_.AddSubject("nurse", kNursePolicy).ok());
    ASSERT_TRUE(msc_.AddSubject("doctor", kDoctorPolicy).ok());
    ASSERT_TRUE(msc_.AddSubject("billing", kBillingPolicy).ok());
  }

  MultiSubjectController msc_;
};

TEST_F(MultiSubjectTest, SubjectsSeeDifferentSlices) {
  // Treatments: doctor yes, nurse no, billing no.
  EXPECT_TRUE(msc_.Query("doctor", "//treatment").ok());
  EXPECT_FALSE(msc_.Query("nurse", "//treatment").ok());
  EXPECT_FALSE(msc_.Query("billing", "//treatment").ok());
  // Bills: doctor and billing.
  EXPECT_TRUE(msc_.Query("doctor", "//bill").ok());
  EXPECT_TRUE(msc_.Query("billing", "//bill").ok());
  EXPECT_FALSE(msc_.Query("nurse", "//bill").ok());
  // Names: doctor and nurse, not billing.
  EXPECT_TRUE(msc_.Query("nurse", "//patient/name").ok());
  EXPECT_TRUE(msc_.Query("doctor", "//patient/name").ok());
  EXPECT_FALSE(msc_.Query("billing", "//patient/name").ok());
}

TEST_F(MultiSubjectTest, UnknownSubjectRejected) {
  EXPECT_EQ(msc_.Query("mallory", "//bill").status().code(),
            StatusCode::kNotFound);
}

TEST_F(MultiSubjectTest, DuplicateSubjectRejected) {
  EXPECT_EQ(msc_.AddSubject("nurse", kNursePolicy).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(MultiSubjectTest, UpdateBroadcastsToAllSubjects) {
  // The nurse cannot see //patient while treatments exist.
  EXPECT_FALSE(msc_.Query("nurse", "//patient").ok());
  auto stats = msc_.ApplyBatch({BatchOp::Delete("//patient/treatment")});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->size(), 3u);
  EXPECT_EQ(stats->at("nurse").nodes_deleted, 8u);
  // After deletion every subject agrees treatments are gone and the nurse
  // sees all patients.
  EXPECT_TRUE(msc_.Query("nurse", "//patient").ok());
  auto doctor = msc_.Query("doctor", "//treatment");
  ASSERT_TRUE(doctor.ok());
  EXPECT_TRUE(doctor->ids.empty());
}

TEST_F(MultiSubjectTest, InsertBroadcastsToAllSubjects) {
  auto stats = msc_.ApplyBatch(
      {BatchOp::Insert("//patient[psn=\"099\"]",
                       "<treatment><regular><med>x</med>"
                       "<bill>123</bill></regular></treatment>")});
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Billing now sees one more bill.
  auto bills = msc_.Query("billing", "//bill");
  ASSERT_TRUE(bills.ok());
  EXPECT_EQ(bills->ids.size(), 3u);
  // The nurse loses patient 099.
  EXPECT_FALSE(msc_.Query("nurse", "//patient[psn=\"099\"]").ok());
}

TEST_F(MultiSubjectTest, LateSubjectSeesCurrentDocument) {
  ASSERT_TRUE(msc_.ApplyBatch({BatchOp::Delete("//experimental")}).ok());
  ASSERT_TRUE(msc_.AddSubject("auditor", kDoctorPolicy).ok());
  auto r = msc_.Query("auditor", "//experimental");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ids.empty());
  auto bills = msc_.Query("auditor", "//bill");
  ASSERT_TRUE(bills.ok());
  EXPECT_EQ(bills->ids.size(), 1u);  // the experimental bill went with it
}

// A batch is parsed whole before anything mutates: a malformed op fails it
// with the document untouched, so a subject added afterwards still agrees
// with the existing subjects.
TEST_F(MultiSubjectTest, MalformedBatchLeavesMasterUnchanged) {
  const size_t nodes_before = msc_.document().alive_count();
  auto stats = msc_.ApplyBatch({BatchOp::Delete("//bill"),
                                BatchOp::Insert("//patient", "<unclosed")});
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(msc_.document().alive_count(), nodes_before);
  ASSERT_TRUE(msc_.AddSubject("auditor", kDoctorPolicy).ok());
  auto late = msc_.Query("auditor", "//bill");
  auto doctor = msc_.Query("doctor", "//bill");
  ASSERT_TRUE(late.ok()) << late.status();
  ASSERT_TRUE(doctor.ok()) << doctor.status();
  EXPECT_FALSE(late->ids.empty());
  EXPECT_EQ(late->ids, doctor->ids);
  auto billing = msc_.Query("billing", "//bill");
  ASSERT_TRUE(billing.ok()) << billing.status();
  EXPECT_EQ(late->ids, billing->ids);
}

TEST_F(MultiSubjectTest, RemoveSubject) {
  ASSERT_TRUE(msc_.RemoveSubject("billing").ok());
  EXPECT_EQ(msc_.subject_count(), 2u);
  EXPECT_EQ(msc_.RemoveSubject("billing").code(), StatusCode::kNotFound);
  EXPECT_FALSE(msc_.Query("billing", "//bill").ok());
}

TEST_F(MultiSubjectTest, SubjectNamesSorted) {
  EXPECT_EQ(msc_.SubjectNames(),
            (std::vector<std::string>{"billing", "doctor", "nurse"}));
}

// The shared store may be relational: subjects run serially over it (its
// executor is not thread-safe) and answer exactly like a native fleet,
// before and after an update.
TEST(MultiSubjectRelationalTest, RelationalStoreAnswersLikeNative) {
  MultiSubjectController relational(
      [] { return std::make_unique<RelationalBackend>(); });
  MultiSubjectController native(NativeFactory);
  for (MultiSubjectController* msc : {&relational, &native}) {
    ASSERT_TRUE(
        msc->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(msc->AddSubject("nurse", kNursePolicy).ok());
    ASSERT_TRUE(msc->AddSubject("doctor", kDoctorPolicy).ok());
  }
  auto expect_same = [&] {
    for (const char* subject : {"nurse", "doctor"}) {
      for (const char* q : {"//bill", "//patient", "//patient/name"}) {
        auto r = relational.Query(subject, q);
        auto n = native.Query(subject, q);
        ASSERT_EQ(r.ok(), n.ok()) << subject << " " << q;
        if (r.ok()) {
          EXPECT_EQ(r->ids, n->ids) << subject << " " << q;
        }
      }
    }
  };
  expect_same();
  for (MultiSubjectController* msc : {&relational, &native}) {
    ASSERT_TRUE(msc->ApplyBatch({BatchOp::Delete("//patient/treatment")}).ok());
  }
  expect_same();
}

TEST(MultiSubjectLifecycleTest, OrderingErrors) {
  MultiSubjectController msc(NativeFactory);
  EXPECT_FALSE(msc.AddSubject("early", kNursePolicy).ok());
  ASSERT_TRUE(msc.Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
  ASSERT_TRUE(msc.AddSubject("x", kNursePolicy).ok());
  // Re-loading with subjects present is rejected (their signs would name
  // nodes of the old document).
  EXPECT_EQ(msc.Load(testdata::kHospitalDtd, testdata::kHospitalDoc).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xmlac::engine
