//! The 32-bit ZEB element.

use rbcd_gpu::{Facing, ObjectId};

/// One entry of a ZEB list: the depth of a point on a collisionable
/// surface, the owning object, and the face orientation.
///
/// The paper sizes each element at 32 bits (Table 1: "32 bit/element").
/// [`ZebElement::encode`]/[`ZebElement::decode`] realise that packing —
/// 16-bit quantized depth, 13-bit object id, 1 face bit — and the unit
/// operates on the quantized depth exactly as the hardware would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZebElement {
    /// Quantized window depth (`0` = near plane, `u16::MAX` = far).
    pub z: u16,
    /// Owning collisionable object.
    pub object: ObjectId,
    /// Front (entry) or back (exit) face.
    pub facing: Facing,
}

impl ZebElement {
    /// Quantizes a `[0, 1]` window depth to the 16-bit hardware format.
    /// Values outside the range are clamped. Forwards to
    /// [`rbcd_gpu::quantize_depth`], the pipeline's one depth quantizer.
    pub fn quantize_depth(z: f32) -> u16 {
        rbcd_gpu::quantize_depth(z)
    }

    /// Creates an element from a floating-point window depth.
    pub fn new(z: f32, object: ObjectId, facing: Facing) -> Self {
        Self { z: Self::quantize_depth(z), object, facing }
    }

    /// Packs into the 32-bit hardware layout:
    /// `[31:16] z | [15] facing | [14:2] object id | [1:0] reserved`.
    pub fn encode(self) -> u32 {
        let face_bit = match self.facing {
            Facing::Front => 1u32,
            Facing::Back => 0u32,
        };
        (self.z as u32) << 16 | face_bit << 15 | (self.object.get() as u32) << 2
    }

    /// Unpacks a 32-bit element.
    pub fn decode(bits: u32) -> Self {
        let facing = if bits & (1 << 15) != 0 { Facing::Front } else { Facing::Back };
        Self {
            z: (bits >> 16) as u16,
            object: ObjectId::new(((bits >> 2) & 0x1FFF) as u16),
            facing,
        }
    }

    /// `true` for a front (entry) face.
    pub fn is_front(&self) -> bool {
        self.facing == Facing::Front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_endpoints() {
        assert_eq!(ZebElement::quantize_depth(0.0), 0);
        assert_eq!(ZebElement::quantize_depth(1.0), u16::MAX);
        assert_eq!(ZebElement::quantize_depth(-0.5), 0);
        assert_eq!(ZebElement::quantize_depth(2.0), u16::MAX);
    }

    #[test]
    fn quantization_monotonic() {
        let mut last = 0;
        for i in 0..=100 {
            let q = ZebElement::quantize_depth(i as f32 / 100.0);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (z, id, facing) in [
            (0.0f32, 0u16, Facing::Front),
            (0.5, 42, Facing::Back),
            (1.0, ObjectId::MAX, Facing::Front),
            (0.25, 8000, Facing::Back),
        ] {
            let e = ZebElement::new(z, ObjectId::new(id), facing);
            assert_eq!(ZebElement::decode(e.encode()), e);
        }
    }

    #[test]
    fn element_fits_32_bits() {
        let e = ZebElement::new(1.0, ObjectId::new(ObjectId::MAX), Facing::Front);
        // encode() returns u32 by construction; check the top layout bits
        // are where we expect them.
        assert_eq!(e.encode() >> 16, u16::MAX as u32);
        assert!(e.is_front());
    }
}
