// Scalar reference backend of the unified kernel API: thin loops over the
// exact inline kernels the adoption sites used to call directly, so this
// backend is bit-identical to the pre-kernel-API code by construction.
// Compiled with -ffp-contract=off like every kernel TU (see
// src/sar/CMakeLists.txt) so the reference semantics cannot drift under a
// contraction-happy compiler configuration.
#include "sar/kernels_impl.hpp"

#include "sar/interp.hpp"

namespace esarp::sar::kernels::detail {

namespace {

void merge_geometry_row_scalar(float r0, float dr, std::size_t j0,
                               std::size_t n, float cr, float d2,
                               float inv_2d, MergeGeom* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float r = r0 + static_cast<float>(j0 + i) * dr;
    out[i] = merge_geometry(r, cr, d2, inv_2d);
  }
}

void nearest_index_row_scalar(const MergeGeom* geom, std::size_t n,
                              const ChildGrid& g, float shift1, float shift2,
                              std::int32_t* it1, std::int32_t* ir1,
                              std::int32_t* it2, std::int32_t* ir2) {
  for (std::size_t i = 0; i < n; ++i) {
    nearest_child_index(g, geom[i].r1 + shift1, geom[i].theta1, it1[i],
                        ir1[i]);
    nearest_child_index(g, geom[i].r2 + shift2, geom[i].theta2, it2[i],
                        ir2[i]);
  }
}

void neville4_many_scalar(const cf32* y, const float* t, cf32* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = neville4(y, t[i]);
}

void neville4_rows_scalar(const cf32* row0, const cf32* row1,
                          const cf32* row2, const cf32* row3, const float* t,
                          cf32* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const cf32 y[4] = {row0[i], row1[i], row2[i], row3[i]};
    out[i] = neville4(y, t[i]);
  }
}

void criterion_terms_scalar(const cf32* minus, const cf32* plus, float* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = criterion_term(minus[i], plus[i]);
}

void gbp_contrib_row_scalar(const float* px, const float* py, float pulse_x,
                            const cf32* pulse_row, const GbpGrid& g,
                            cf32* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g);
}

void gbp_phase_row_scalar(const float* range, double k_phase, cf32* rot,
                          std::uint8_t* fast, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    rot[i] = gbp_rotation(range[i], k_phase);
    fast[i] = 0;
  }
}

} // namespace

const KernelTable* scalar_table() {
  static const KernelTable table{
      merge_geometry_row_scalar, nearest_index_row_scalar,
      neville4_many_scalar, neville4_rows_scalar, criterion_terms_scalar,
      gbp_contrib_row_scalar, gbp_phase_row_scalar};
  return &table;
}

} // namespace esarp::sar::kernels::detail
