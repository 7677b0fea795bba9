//! The simulated mobile-device fleet (DESIGN.md substitution S9).
//!
//! Each [`Device`] runs the on-device half of Nazar for every inference
//! request it receives:
//!
//! 1. **select** the stored model version whose attributes best match the
//!    input's metadata (via [`nazar_registry::ModelPool`]), falling back to
//!    the base model;
//! 2. **infer** with the selected model;
//! 3. **detect** drift with the lightweight MSP threshold on the inference
//!    output;
//! 4. **emit** a [`nazar_log::DriftLogEntry`] with the detection verdict and
//!    metadata (weather, location, device id), and
//! 5. **sample** a configurable fraction of raw inputs for upload to the
//!    cloud (the data by-cause adaptation trains on).
//!
//! [`FleetSim`] replays pre-generated [`nazar_data::StreamItem`]s through
//! many devices as an event-driven simulation on a virtual clock and
//! aggregates accuracy statistics per window — the measurement loop behind
//! every end-to-end figure (Fig. 8 / 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod scheduler;
mod state;
mod window;

pub use device::{Device, DeviceConfig, DeviceOutput, UploadedSample};
pub use scheduler::{peak_rss_bytes, FleetSim, TraceEvent, DAY_US};
pub use state::{DevicePools, FleetState, PoolSlot, CONF_HISTORY};
pub use window::{WindowOutput, WindowStats};

use nazar_log::Attribute;

/// The drift-log schema every device reports under.
pub const LOG_SCHEMA: [&str; 3] = ["weather", "location", "device_id"];

/// Builds the metadata attributes of a stream item, in schema order.
pub fn item_attributes(item: &nazar_data::StreamItem) -> Vec<Attribute> {
    vec![
        Attribute::new("weather", item.weather.name()),
        Attribute::new("location", item.location.clone()),
        Attribute::new("device_id", item.device_id.clone()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_data::{Severity, SimDate, StreamItem, Weather};

    #[test]
    fn item_attributes_follow_schema_order() {
        let item = StreamItem {
            features: vec![0.0],
            label: 0,
            date: SimDate::new(0),
            location: "quebec".into(),
            device_id: "quebec-dev01".into(),
            weather: Weather::Snow,
            true_cause: None,
            severity: Severity::NONE,
        };
        let attrs = item_attributes(&item);
        let keys: Vec<&str> = attrs.iter().map(|a| a.key.as_str()).collect();
        assert_eq!(keys, LOG_SCHEMA);
        assert_eq!(attrs[0].value, "snow");
    }
}
