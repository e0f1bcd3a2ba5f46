#ifndef SCGUARD_GEO_POINT_H_
#define SCGUARD_GEO_POINT_H_

#include <cmath>
#include <ostream>

namespace scguard::geo {

/// A point (or displacement) in a local planar coordinate system, in meters.
///
/// All assignment-time geometry in SCGuard is planar: latitude/longitude
/// inputs are projected once (see projection.h) and every distance after
/// that is Euclidean, matching the paper's `d(x, x')`.
struct Point {
  double x = 0.0;  ///< East offset in meters.
  double y = 0.0;  ///< North offset in meters.

  friend Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend Point operator*(Point p, double s) { return {p.x * s, p.y * s}; }
  friend Point operator*(double s, Point p) { return p * s; }
  friend bool operator==(Point a, Point b) { return a.x == b.x && a.y == b.y; }

  /// Euclidean norm of this point viewed as a vector from the origin.
  double Norm() const { return std::hypot(x, y); }

  /// False for NaN or infinite coordinates (untrusted ingest input).
  bool IsFinite() const { return std::isfinite(x) && std::isfinite(y); }
};

/// Euclidean distance between two points, in meters.
inline double Distance(Point a, Point b) { return std::hypot(a.x - b.x, a.y - b.y); }

/// Squared Euclidean distance (avoids the sqrt for comparisons).
inline double SquaredDistance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline std::ostream& operator<<(std::ostream& os, Point p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

}  // namespace scguard::geo

#endif  // SCGUARD_GEO_POINT_H_
