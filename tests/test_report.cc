/**
 * @file test_report.cc
 * Campaign report tests, including the golden-output tests: the JSON
 * and CSV for a fixed --quick-sized campaign must match the checked-in
 * expectations byte for byte (timing omitted — it is the one
 * non-deterministic part of a report). Regenerate the golden files
 * after an intentional schema or simulator change with:
 *
 *   CALIFORMS_REGEN_GOLDEN=1 ./test_report
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exp/report.hh"

#ifndef CALIFORMS_GOLDEN_DIR
#error "build must define CALIFORMS_GOLDEN_DIR"
#endif

namespace califorms
{
namespace
{

exp::CampaignSpec
goldenSpec()
{
    exp::CampaignSpec spec;
    spec.name = "golden_quick";
    spec.suite = {&findBenchmark("mcf")};
    spec.variants = {
        {"base", InsertionPolicy::None, 0, 0, false, false},
        {"full/3 CFORM", InsertionPolicy::Full, 3, 0, true, true},
    };
    spec.layoutSeeds = {1000, 1001};
    spec.base.scale = 0.05;
    return spec;
}

/** The hierarchy-axis flavour of the golden campaign (v2 features). */
exp::CampaignSpec
goldenHierarchySpec()
{
    exp::CampaignSpec spec = goldenSpec();
    spec.name = "golden_hierarchy";
    spec.variants =
        exp::CampaignSpec::crossLevels(spec.variants, {1, 3});
    spec.base.machine.mem.wbQueueEntries = 8;
    return spec;
}

std::string
goldenPath(const char *file)
{
    return std::string(CALIFORMS_GOLDEN_DIR) + "/" + file;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Golden comparison with the shared CALIFORMS_REGEN_GOLDEN flow. */
void
expectMatchesGolden(const std::string &json, const char *file)
{
    const std::string path = goldenPath(file);
    if (std::getenv("CALIFORMS_REGEN_GOLDEN")) {
        exp::writeReportFile(path, json);
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string expected = slurp(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << path
        << " (run with CALIFORMS_REGEN_GOLDEN=1 to create it)";
    EXPECT_EQ(json, expected);
}

TEST(ReportGolden, QuickJsonMatchesCheckedInExpectation)
{
    // The default-hierarchy campaign: pins the per-run "mem" block
    // (every counter-table row of a default machine, in table order)
    // and the absence of every gated block.
    const auto result = exp::runCampaign(goldenSpec(), 2);
    exp::ReportTiming timing;
    timing.include = false;
    const std::string json = exp::campaignJson(result, timing);
    expectMatchesGolden(json, "campaign_quick_v2.json");
}

TEST(ReportGolden, V2JsonMatchesCheckedInExpectation)
{
    // The v2 golden covers the new surface: the hierarchy object, the
    // per-variant levels axis, per-run effective depth, and the
    // conversion / write-back-queue counters (non-zero L2/LLC stats
    // and wbq activity come from the crossed depths).
    const auto result = exp::runCampaign(goldenHierarchySpec(), 2);
    exp::ReportTiming timing;
    timing.include = false;
    const std::string json = exp::campaignJson(result, timing);
    expectMatchesGolden(json, "campaign_hierarchy_v2.json");
}

TEST(ReportGolden, QuickCsvMatchesCheckedInExpectation)
{
    // Every CSV column of the default-hierarchy campaign, byte for
    // byte: the header and each run's row.
    const auto result = exp::runCampaign(goldenSpec(), 2);
    expectMatchesGolden(exp::campaignCsv(result), "campaign_quick_v2.csv");
}

TEST(Report, V2CarriesTheHierarchyAndConversionSurface)
{
    const auto result = exp::runCampaign(goldenHierarchySpec(), 1);
    exp::ReportTiming timing;
    timing.include = false;
    const std::string v2 = exp::campaignJson(result, timing);
    EXPECT_NE(v2.find("\"schema\": \"califorms-campaign/v2\""),
              std::string::npos);
    EXPECT_NE(v2.find("\"hierarchy\": {\"levels\": 3"),
              std::string::npos);
    EXPECT_NE(v2.find("\"wbQueueEntries\": 8"), std::string::npos);
    EXPECT_NE(v2.find("\"califorms.fillConvCycles\""),
              std::string::npos);
    EXPECT_NE(v2.find("\"wbq.hits\""), std::string::npos);
    EXPECT_NE(v2.find("\"label\": \"base@L1\", \"policy\": \"none\""),
              std::string::npos);
}

TEST(Report, TimingIsSegregatedAndOptional)
{
    const auto result = exp::runCampaign(goldenSpec(), 1);
    exp::ReportTiming with;
    with.jobs = 4;
    with.elapsedMs = 12.5;
    exp::ReportTiming without;
    without.include = false;

    const std::string a = exp::campaignJson(result, with);
    const std::string b = exp::campaignJson(result, without);
    EXPECT_NE(a.find("\"timing\": {\"jobs\": 4, \"elapsedMs\": 12.5}"),
              std::string::npos);
    EXPECT_EQ(b.find("\"timing\""), std::string::npos);
    // Stripping the timing line reduces a to b: nothing else differs.
    std::string stripped;
    std::istringstream lines(a);
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"timing\"") == std::string::npos)
            stripped += line + "\n";
    EXPECT_EQ(stripped, b);
}

TEST(Report, JsonIsJobCountInvariant)
{
    exp::ReportTiming timing;
    timing.include = false;
    const std::string serial =
        exp::campaignJson(exp::runCampaign(goldenSpec(), 1), timing);
    const std::string parallel =
        exp::campaignJson(exp::runCampaign(goldenSpec(), 8), timing);
    EXPECT_EQ(serial, parallel);
}

TEST(Report, CsvHasOneRowPerRun)
{
    const auto result = exp::runCampaign(goldenSpec(), 2);
    const std::string csv = exp::campaignCsv(result);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    // header + base(1 seed) + full/3(2 seeds)
    EXPECT_EQ(lines, 4u);
    EXPECT_EQ(csv.find("benchmark,variant,policy,maxSpan,fixedSpan,"
                       "layoutSeed,cycles"),
              0u);
    EXPECT_NE(csv.find("mcf,full/3 CFORM,full,3,0,1001,"),
              std::string::npos);
}

TEST(Report, CsvQuotesHostileLabels)
{
    exp::CampaignSpec spec = goldenSpec();
    spec.variants[1].label = "a,b\"c";
    const auto result = exp::runCampaign(spec, 1);
    const std::string csv = exp::campaignCsv(result);
    // RFC 4180: the field is quoted and the embedded quote doubled,
    // so the row count and column count survive hostile labels.
    EXPECT_NE(csv.find("mcf,\"a,b\"\"c\",full,3,"), std::string::npos);
}

TEST(Report, JsonEscapesLabels)
{
    exp::CampaignSpec spec = goldenSpec();
    spec.variants[1].label = "a\"b\\c\nd";
    const auto result = exp::runCampaign(spec, 1);
    exp::ReportTiming timing;
    timing.include = false;
    const std::string json = exp::campaignJson(result, timing);
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(Report, WriteFileRejectsBadPath)
{
    EXPECT_THROW(
        exp::writeReportFile("/nonexistent-dir/x/report.json", "{}"),
        std::runtime_error);
}

} // namespace
} // namespace califorms
