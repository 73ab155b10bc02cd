/**
 * @file report.hh
 * Machine-readable campaign reports: JSON (schema
 * "califorms-campaign/v2") and CSV, one record per run. Every per-run
 * value is a sim/stats_dump counter-table row: each JSON run record is
 * its unit keys plus runJson (counter blocks under the canonical dump
 * names, so a JSON trajectory diffs against a text stats dump key for
 * key; a block appears only when its gate opens), and each CSV column
 * names one row. Numeric output is
 * deterministic: the simulator's counters are integers and every ratio
 * is formatted with a fixed shortest-round-trip rule, so two runs of
 * the same campaign produce byte-identical reports regardless of
 * --jobs; wall-clock metadata is segregated in the optional "timing"
 * object so golden tests can simply omit it.
 */

#ifndef CALIFORMS_EXP_REPORT_HH
#define CALIFORMS_EXP_REPORT_HH

#include <string>

#include "exp/campaign.hh"

namespace califorms::exp
{

/** Non-deterministic run metadata, kept out of golden comparisons. */
struct ReportTiming
{
    bool include = true; //!< false: omit the "timing" object entirely
    unsigned jobs = 1;
    double elapsedMs = 0;
};

/** Render the whole campaign as JSON. */
std::string campaignJson(const CampaignResult &result,
                         const ReportTiming &timing = {});

/** Render the runs as CSV (header + one row per run). */
std::string campaignCsv(const CampaignResult &result);

/** Write @p content to @p path; throws std::runtime_error on failure. */
void writeReportFile(const std::string &path,
                     const std::string &content);

/**
 * Write the requested reports (empty path = skip that format) and note
 * each file on stderr — stderr so stdout stays byte-identical across
 * job counts and report destinations. The one report flow shared by
 * the bench harnesses and `califorms sweep`.
 */
void writeReports(const CampaignResult &result,
                  const ReportTiming &timing,
                  const std::string &json_path,
                  const std::string &csv_path);

/**
 * Run @p spec with @p jobs workers, timing it, then write the
 * requested reports (empty path = skip). Both paths are validated by
 * creating the files *before* the campaign runs, so a typo'd
 * destination fails in milliseconds instead of after a multi-minute
 * grid. The one campaign-with-reports flow shared by the bench
 * harnesses and `califorms sweep`.
 */
CampaignResult runCampaignWithReports(const CampaignSpec &spec,
                                      unsigned jobs,
                                      const std::string &json_path,
                                      const std::string &csv_path);

} // namespace califorms::exp

#endif // CALIFORMS_EXP_REPORT_HH
