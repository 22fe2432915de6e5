package geosir

import "fmt"

// GSIR1 is the legacy stream format: GSIR2's records unframed — magic,
// the 40-byte options record of GSIR2's legacy section 0, then the image
// records of GSIR2's image sections as a bare concatenation, with no
// length framing and no checksums. Read-only — LoadPartial and
// LoadAnyMode keep old snapshots usable (testdata/gsir1/base.gsir1 is one,
// written by the last writer this repo had); nothing here produces the
// format. Bytes past the last declared image are ignored.

// loadGSIR1 is the GSIR1 decoder, over the stream's bytes: it salvages
// the undamaged prefix of a legacy stream through GSIR2's record parsers.
// GSIR1 has no section framing or checksums, so the first parse error
// ends recovery: every fully parsed image before it is kept, everything
// after is reported dropped.
func loadGSIR1(data []byte) (*Engine, *Recovery, error) {
	c := cursor{b: data[magicLen:]}
	opts, nimg, err := parseOptions(&c)
	if err != nil {
		return nil, nil, fmt.Errorf("geosir: unrecoverable options header: %w", err)
	}
	eng := New(opts)
	rec := &Recovery{Format: "GSIR1", ImagesExpected: nimg}
	for i := 0; i < nimg; i++ {
		imgID, shapes, err := parseImage(&c)
		if err != nil {
			// A parse error loses framing: the stream position is
			// untrustworthy from here on. The failing section is reported;
			// the unreadable tail is counted, not enumerated.
			rec.Truncated = true
			rec.Dropped = append(rec.Dropped, DroppedImage{Section: i + 1, ImageID: -1, Err: err})
			rec.ImagesUnread = nimg - i - 1
			rec.damage(fmt.Errorf("geosir: image %d of %d: %w", i+1, nimg, err))
			break
		}
		// A decoded but invalid image (corrupt coordinate bytes still
		// parse as floats) keeps framing intact: drop it and continue.
		if err := eng.AddImage(imgID, shapes); err != nil {
			rec.Dropped = append(rec.Dropped, DroppedImage{Section: i + 1, ImageID: imgID, Err: err})
			rec.damage(fmt.Errorf("geosir: image %d: %w", imgID, err))
			continue
		}
		rec.ImagesLoaded++
	}
	if err := eng.Freeze(); err != nil {
		return nil, nil, err
	}
	return eng, rec, nil
}
