//! # ivnt-series — time-series algorithms for trace symbolization
//!
//! From-scratch implementations of the algorithms the DAC'18 paper's
//! type-dependent processing branches rely on (Sec. 4.2):
//!
//! * [`swab`] — SWAB online segmentation (Keogh et al., ICDM 2001),
//! * [`sax`] — PAA + SAX symbolization (Lin et al., DMKD 2003),
//! * [`smooth`] — moving-average / exponential smoothing,
//! * [`outlier`] — z-score, Hampel and IQR outlier detection,
//! * [`trend`] — least-squares gradient and qualitative trend labels,
//! * [`segment`] / [`stats`] — shared fitting and statistics primitives.
//!
//! Branch α of the paper composes these as: outlier removal → smoothing →
//! SWAB segmentation → SAX symbol + trend per segment; branch β uses the
//! outlier detectors and the gradient.
//!
//! # Examples
//!
//! ```
//! use ivnt_series::{sax, swab, trend};
//!
//! // A speed-like trajectory: accelerate then cruise.
//! let mut speed: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! speed.extend(vec![99.0; 100]);
//!
//! let segments = swab::swab(&speed, swab::SwabConfig { max_error: 5.0, buffer_len: 64 });
//! let trends = trend::classify_segments(&segments, 0.05);
//! assert!(trends.contains(&trend::Trend::Increasing));
//! assert!(trends.contains(&trend::Trend::Steady));
//!
//! let word = sax::sax_word(&speed, 8, 4);
//! assert_eq!(word.len(), 8);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod outlier;
pub mod sax;
pub mod segment;
pub mod smooth;
pub mod stats;
pub mod swab;
pub mod trend;

pub use segment::Segment;
pub use swab::{swab as swab_segment, SwabConfig};
pub use trend::Trend;
