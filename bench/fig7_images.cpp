// Reproduces Figure 7: (a) pulse-compressed raw data with the curved
// range-migration paths of six point targets, (b) the GBP-processed image
// (quality reference), (c) the FFBP image from the Intel-reference code
// path, (d) the FFBP image computed by the simulated 16-core Epiphany.
//
// Writes PGM renderings plus quantitative quality metrics (the paper's
// Fig.-7 discussion: FFBP with simplified interpolation is visibly noisier
// than GBP; the Intel and Epiphany FFBP images are of equal quality — in
// this reproduction they are bit-identical by construction, and the bench
// exits 1 if they are not).
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/pgm.hpp"
#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();
  const auto dir = bench::out_dir();

  std::cerr << "fig 7(a): raw data...\n";
  write_pgm(dir / "fig7a_raw_data.pgm", w.data, {.dynamic_range_db = 35.0});

  std::cerr << "fig 7(b): GBP (this is the long one)...\n";
  WallTimer gbp_timer;
  const std::size_t decim = bench::fast_mode() ? 4 : 1;
  const auto g = sar::gbp(w.data, w.params, decim);
  std::cerr << "  gbp took " << format_seconds(gbp_timer.elapsed_s()) << "\n";
  write_pgm(dir / "fig7b_gbp.pgm", g.image.data, {.dynamic_range_db = 45.0});

  std::cerr << "fig 7(c): FFBP, Intel reference path...\n";
  const auto f_host = sar::ffbp(w.data, w.params);
  write_pgm(dir / "fig7c_ffbp_intel.pgm", f_host.image.data,
            {.dynamic_range_db = 45.0});

  std::cerr << "fig 7(d): FFBP on the simulated 16-core Epiphany...\n";
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto f_epi = core::run_ffbp_epiphany(w.data, w.params, opt);
  write_pgm(dir / "fig7d_ffbp_epiphany.pgm", f_epi.image,
            {.dynamic_range_db = 45.0});

  const bool identical = f_epi.image == f_host.image.data;

  Table t("Figure 7: image quality metrics");
  t.header({"Panel", "Entropy (bits)", "Contrast", "Peak/avg (dB)",
            "rel. RMSE vs GBP"});
  t.row({"(a) raw data", Table::num(image_entropy(w.data), 2),
         Table::num(image_contrast(w.data), 2),
         Table::num(peak_to_average_db(w.data), 1), "-"});
  t.row({"(b) GBP", Table::num(image_entropy(g.image.data), 2),
         Table::num(image_contrast(g.image.data), 2),
         Table::num(peak_to_average_db(g.image.data), 1), "0"});
  t.row({"(c) FFBP (Intel path)",
         Table::num(image_entropy(f_host.image.data), 2),
         Table::num(image_contrast(f_host.image.data), 2),
         Table::num(peak_to_average_db(f_host.image.data), 1),
         Table::num(relative_rmse(f_host.image.data, g.image.data), 4)});
  t.row({"(d) FFBP (Epiphany)", Table::num(image_entropy(f_epi.image), 2),
         Table::num(image_contrast(f_epi.image), 2),
         Table::num(peak_to_average_db(f_epi.image), 1),
         Table::num(relative_rmse(f_epi.image, g.image.data), 4)});
  t.note("PGM files written to " + dir.string());
  t.note(std::string("Intel-path and Epiphany FFBP images are ") +
         (identical ? "bit-identical" : "DIFFERENT (unexpected!)") +
         " (paper: 'similar in quality')");
  t.note("lower entropy / higher contrast = sharper; GBP is the quality"
         " reference the paper compares FFBP against");
  t.print(std::cout);

  std::cout << "\nFFBP image preview (log magnitude):\n"
            << ascii_render(f_host.image.data, 72, 35.0) << "\n";

  CsvWriter csv(bench::out_dir() / "fig7_metrics.csv",
                {"panel", "entropy", "contrast", "peak_avg_db", "rmse_vs_gbp"});
  csv.row({"raw", Table::num(image_entropy(w.data), 4),
           Table::num(image_contrast(w.data), 4),
           Table::num(peak_to_average_db(w.data), 3), ""});
  csv.row({"gbp", Table::num(image_entropy(g.image.data), 4),
           Table::num(image_contrast(g.image.data), 4),
           Table::num(peak_to_average_db(g.image.data), 3), "0"});
  csv.row({"ffbp", Table::num(image_entropy(f_host.image.data), 4),
           Table::num(image_contrast(f_host.image.data), 4),
           Table::num(peak_to_average_db(f_host.image.data), 3),
           Table::num(relative_rmse(f_host.image.data, g.image.data), 6)});
  if (!identical) {
    std::cerr << "fig7_images: the Epiphany FFBP image differs from the "
                 "Intel-path image\n";
    return 1;
  }
  return 0;
}

int main() { return esarp::bench::guarded_main("fig7_images", bench_body); }
