#include "fleet/checkpoint.h"

#include <cstdio>
#include <string>

#include "common/checksum.h"
#include "common/cli.h"
#include "common/config.h"
#include "fleet/scenario.h"
#include "recovery/snapshot.h"

namespace twl {

namespace {

/// "TWLC" little-endian: fleet checkpoint envelope.
constexpr std::uint32_t kCheckpointMagic = 0x434C5754;

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

std::vector<std::uint8_t> CheckpointManager::serialize(
    const Config& config, const Scenario& scenario, const FleetState& state) {
  SnapshotWriter w;
  w.put_u32(kCheckpointMagic);
  w.put_u16(kCheckpointVersion);
  w.put_string(scenario.name);
  w.put_string(scenario.scheme_spec);
  w.put_u64(config.seed);
  w.put_u64(config.geometry.pages());
  w.put_double(config.endurance.mean);
  w.put_u32(scenario.devices);
  w.put_u32(state.day);
  for (const DeviceState& dev : state.devices) w.put_u8_vec(state_blob(dev));
  const std::uint32_t crc = crc32(w.bytes().data(), w.bytes().size());
  w.put_u32(crc);
  return w.take();
}

FleetState CheckpointManager::deserialize(
    const Config& config, const Scenario& scenario,
    const std::vector<std::uint8_t>& blob) {
  // Integrity first: no field is interpreted until the whole blob
  // checksums, so damage anywhere — header, payload, tail — is reported
  // as damage rather than as a confusing field mismatch.
  if (blob.size() < 4) {
    throw CheckpointError("checkpoint corrupt: " +
                          std::to_string(blob.size()) +
                          " bytes is too short for a checkpoint");
  }
  const std::size_t body = blob.size() - 4;
  const std::uint32_t expected = crc32(blob.data(), body);
  SnapshotReader tail(blob.data() + body, 4);
  const std::uint32_t stored = tail.get_u32();
  if (stored != expected) {
    throw CheckpointError("checkpoint corrupt: CRC mismatch (stored " +
                          hex32(stored) + ", computed " + hex32(expected) +
                          ")");
  }

  SnapshotReader r(blob.data(), body);
  try {
    const std::uint32_t magic = r.get_u32();
    if (magic != kCheckpointMagic) {
      throw CheckpointError("checkpoint corrupt: bad magic " + hex32(magic) +
                            " (expected " + hex32(kCheckpointMagic) + ")");
    }
    const std::uint16_t version = r.get_u16();
    if (version != kCheckpointVersion) {
      throw CheckpointError(
          "checkpoint version mismatch: found " + std::to_string(version) +
          ", this build reads " + std::to_string(kCheckpointVersion));
    }
    // Run identity: a checkpoint resumes only into the run that wrote it.
    const std::string name = r.get_string();
    if (name != scenario.name) {
      throw CheckpointError("checkpoint belongs to scenario '" + name +
                            "', resuming '" + scenario.name + "'");
    }
    const std::string spec = r.get_string();
    if (spec != scenario.scheme_spec) {
      throw CheckpointError("checkpoint scheme is '" + spec +
                            "', scenario expects '" + scenario.scheme_spec +
                            "'");
    }
    const std::uint64_t seed = r.get_u64();
    if (seed != config.seed) {
      throw CheckpointError("checkpoint seed " + std::to_string(seed) +
                            " does not match config seed " +
                            std::to_string(config.seed));
    }
    r.expect_u64(config.geometry.pages(), "checkpoint_pages");
    const double mean = r.get_double();
    if (mean != config.endurance.mean) {
      throw CheckpointError(
          "checkpoint endurance mean " + std::to_string(mean) +
          " does not match config " + std::to_string(config.endurance.mean));
    }
    const std::uint32_t devices = r.get_u32();
    if (devices != scenario.devices) {
      throw CheckpointError("checkpoint holds " + std::to_string(devices) +
                            " devices, scenario expects " +
                            std::to_string(scenario.devices));
    }

    FleetState state;
    state.day = r.get_u32();
    state.devices.resize(devices);
    for (DeviceState& dev : state.devices) {
      const std::vector<std::uint8_t> payload = r.get_u8_vec();
      SnapshotReader dr(payload);
      dev.load_state(dr);
      if (!dr.exhausted()) {
        throw CheckpointError(
            "checkpoint corrupt: device state has trailing bytes");
      }
    }
    if (!r.exhausted()) {
      throw CheckpointError("checkpoint corrupt: " +
                            std::to_string(r.remaining()) +
                            " unconsumed bytes before the CRC tail");
    }
    return state;
  } catch (const SnapshotError& e) {
    // A structural decode failure past the CRC gate still means the blob
    // is not a checkpoint of this shape — surface it in our vocabulary.
    throw CheckpointError(std::string("checkpoint corrupt: ") + e.what());
  }
}

void CheckpointManager::write_file(const std::string& path,
                                   const std::vector<std::uint8_t>& blob) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointError("cannot open checkpoint file for writing: " +
                          path);
  }
  const std::size_t written =
      blob.empty() ? 0 : std::fwrite(blob.data(), 1, blob.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != blob.size() || !flushed) {
    throw CheckpointError("short write to checkpoint file: " + path);
  }
}

FleetState CheckpointManager::load_for_resume(const std::string& path,
                                              const Config& config,
                                              const Scenario& scenario) {
  try {
    return deserialize(config, scenario, read_file(path));
  } catch (const CheckpointError& e) {
    throw CliError("cannot resume from checkpoint '" + path +
                   "': " + e.what() + " — expected a 'TWLC' envelope (magic " +
                   hex32(kCheckpointMagic) + ") written by --stop-day");
  }
}

std::vector<std::uint8_t> CheckpointManager::read_file(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError("cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> blob;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.insert(blob.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw CheckpointError("error reading checkpoint file: " + path);
  }
  return blob;
}

}  // namespace twl
