#include "des/stats.hpp"

#include <array>
#include <cstdio>
#include <limits>

namespace mobichk::des {

namespace {

// Two-sided critical values t_{alpha/2, dof} for dof = 1..30, then selected
// larger dofs; the last entry is the normal-approximation limit.
struct TtableRow {
  u64 dof;
  f64 t90, t95, t99;
};

constexpr std::array<TtableRow, 35> kTtable = {{
    {1, 6.314, 12.706, 63.657},  {2, 2.920, 4.303, 9.925},   {3, 2.353, 3.182, 5.841},
    {4, 2.132, 2.776, 4.604},    {5, 2.015, 2.571, 4.032},   {6, 1.943, 2.447, 3.707},
    {7, 1.895, 2.365, 3.499},    {8, 1.860, 2.306, 3.355},   {9, 1.833, 2.262, 3.250},
    {10, 1.812, 2.228, 3.169},   {11, 1.796, 2.201, 3.106},  {12, 1.782, 2.179, 3.055},
    {13, 1.771, 2.160, 3.012},   {14, 1.761, 2.145, 2.977},  {15, 1.753, 2.131, 2.947},
    {16, 1.746, 2.120, 2.921},   {17, 1.740, 2.110, 2.898},  {18, 1.734, 2.101, 2.878},
    {19, 1.729, 2.093, 2.861},   {20, 1.725, 2.086, 2.845},  {21, 1.721, 2.080, 2.831},
    {22, 1.717, 2.074, 2.819},   {23, 1.714, 2.069, 2.807},  {24, 1.711, 2.064, 2.797},
    {25, 1.708, 2.060, 2.787},   {26, 1.706, 2.056, 2.779},  {27, 1.703, 2.052, 2.771},
    {28, 1.701, 2.048, 2.763},   {29, 1.699, 2.045, 2.756},  {30, 1.697, 2.042, 2.750},
    {40, 1.684, 2.021, 2.704},   {60, 1.671, 2.000, 2.660},  {120, 1.658, 1.980, 2.617},
    {1000, 1.646, 1.962, 2.581}, {0, 1.645, 1.960, 2.576},  // dof 0 row = infinity
}};

}  // namespace

f64 student_t_critical(f64 confidence, u64 dof) {
  if (dof == 0) dof = 1;
  // Conservative mapping: pick the largest tabulated dof that does not
  // exceed the requested one. Critical values shrink as dof grows, so
  // rounding *up* to the next row (e.g. dof 500 -> the 1000 row) would
  // understate the half-width and produce anti-conservative intervals.
  const TtableRow* row = &kTtable.front();
  for (const auto& r : kTtable) {
    if (r.dof == 0 || r.dof > dof) break;
    row = &r;
  }
  if (confidence >= 0.989) return row->t99;
  if (confidence >= 0.949) return row->t95;
  return row->t90;
}

f64 confidence_half_width(const Tally& tally, f64 confidence) {
  if (tally.count() < 2) return 0.0;
  const f64 t = student_t_critical(confidence, tally.count() - 1);
  return t * tally.stddev() / std::sqrt(static_cast<f64>(tally.count()));
}

f64 relative_half_width(const Tally& tally, f64 confidence) {
  constexpr f64 kInf = std::numeric_limits<f64>::infinity();
  if (tally.count() < 2) return kInf;
  const f64 hw = confidence_half_width(tally, confidence);
  const f64 scale = std::fabs(tally.mean());
  if (scale == 0.0) return hw == 0.0 ? 0.0 : kInf;
  return hw / scale;
}

std::string format_ci(const Tally& tally, f64 confidence) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g ± %.2g", tally.mean(),
                confidence_half_width(tally, confidence));
  return buf;
}

}  // namespace mobichk::des
